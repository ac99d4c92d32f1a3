"""Qubit effects and observables in effect coordinates.

A qubit effect is parameterized as half of (1 + e0) times the identity plus
the Bloch part dotted into the Pauli vector; it is a valid effect exactly
when the absolute bias plus the Euclidean norm of the Bloch part is at most
one. Two coordinate systems are used:

* display/hull coordinates (e0, ex, ey, ez): the paper-style affine
  embedding under which the simulators' effect hull becomes the unit
  1-norm ball, used for hull queries and the octahedron test;
* linear coordinates (ex, ey, ez, (1 + e0) / 2): a genuinely linear,
  invertible encoding with the unit-effect coefficient in the last slot,
  used to turn qubit observables into plain vector observables so every
  simulability or postprocessing question becomes an LP in R^4.

State-geometry questions (joint measurability) are not LPs over these
coordinates; they live in the catalog module behind polyhedral brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .scalars import DEFAULT_TOLERANCE, EXACT, Tolerance, field, kind_of
from .spaces import Effect, Observable


@dataclass(frozen=True)
class QubitEffect:
    """Bias e0 and Bloch vector e of the effect ((1+e0) id + e.sigma) / 2."""

    e0: object
    e_vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "e_vec", tuple(self.e_vec))
        if len(self.e_vec) != 3:
            raise ValueError("Bloch part must be a 3-vector")

    @cached_property
    def kind(self):
        """EXACT, FLOAT, or None when every coordinate is an integer."""
        return kind_of((self.e0, *self.e_vec))

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def is_valid(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """|e0| + ||e||_2 <= 1, compared through squares in exact mode."""
        if self.mode == EXACT:
            slack = 1 - abs(Fraction(self.e0))
            if slack < 0:
                return False
            return sum(Fraction(x) ** 2 for x in self.e_vec) <= slack ** 2
        return abs(self.e0) + math.sqrt(sum(float(x) ** 2 for x in self.e_vec)) \
            <= 1 + tol.eps_compare

    def is_rank_one(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Exactly one nonzero eigenvalue: ||e||_2 equals 1 + e0 > 0."""
        if self.mode == EXACT:
            w0 = 1 + Fraction(self.e0)
            return w0 > 0 and sum(Fraction(x) ** 2 for x in self.e_vec) == w0 ** 2
        w0 = 1.0 + float(self.e0)
        norm = math.sqrt(sum(float(x) ** 2 for x in self.e_vec))
        return w0 > tol.eps_compare and abs(norm - w0) <= tol.eps_compare

    def min_eigenvalue(self) -> float:
        return 0.5 * (1.0 + float(self.e0)
                      - math.sqrt(sum(float(x) ** 2 for x in self.e_vec)))

    def complement(self) -> "QubitEffect":
        return QubitEffect(-self.e0, tuple(-x for x in self.e_vec))


def qubit_to_vector(effect: QubitEffect) -> tuple:
    """Display coordinates (e0, ex, ey, ez); the identity maps to (1,0,0,0)."""
    return (effect.e0, *effect.e_vec)


def linear_coords(effect: QubitEffect) -> tuple:
    """Linear coordinates (ex, ey, ez, (1+e0)/2); addition of effects is
    coordinatewise, the unit is (0,0,0,1) and the zero effect is the origin."""
    F = field(effect.mode)
    return (*effect.e_vec, (F.one + F.coerce(effect.e0)) / 2)


def effect_from_linear(coeffs: Sequence) -> QubitEffect:
    ex, ey, ez, tau = coeffs
    e0 = 2 * tau - 1
    return QubitEffect(e0, (ex, ey, ez))


@dataclass(frozen=True)
class QubitObservable:
    """Finite family of qubit effects with biases and Bloch parts summing
    to the identity."""

    outcomes: tuple  # of (label, QubitEffect)

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes",
            tuple((str(lab), eff) for lab, eff in self.outcomes))

    @property
    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.outcomes)

    @property
    def effects(self) -> tuple:
        return tuple(eff for _, eff in self.outcomes)

    def is_valid(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        eps = field(self.mode, tol).eps_feas
        if any(not e.is_valid(tol) for e in self.effects):
            return False
        if abs(sum(1 + e.e0 for e in self.effects) - 2) > eps:
            return False
        return all(abs(sum(e.e_vec[i] for e in self.effects)) <= eps
                   for i in range(3))

    @cached_property
    def kind(self):
        """EXACT, FLOAT, or None when every coordinate is an integer."""
        return kind_of(x for _, e in self.outcomes for x in (e.e0, *e.e_vec))

    @property
    def mode(self) -> str:
        return self.kind or EXACT


def as_vector_observable(obs: QubitObservable) -> Observable:
    """Plain 4-dimensional vector observable in linear coordinates."""
    return Observable(tuple((lab, Effect(linear_coords(eff)))
                            for lab, eff in obs.outcomes), None)


def dichotomic(label_plus: str, label_minus: str, effect: QubitEffect) -> QubitObservable:
    return QubitObservable(((label_plus, effect), (label_minus, effect.complement())))


def is_postprocessing_clean(obs: QubitObservable,
                            tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Every nonzero effect must be rank one."""
    F = field(obs.mode, tol)
    for eff in obs.effects:
        if F.is_zero((1 + eff.e0, *eff.e_vec)):
            continue
        if not eff.is_rank_one(tol):
            return False
    return True


def is_simulation_irreducible(obs: QubitObservable,
                              tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Criterion on the merged form: rank-one, linearly independent effects."""
    from .postprocessing import minimally_sufficient
    from . import geometry

    vec = as_vector_observable(obs)
    hat = minimally_sufficient(vec, tol)
    for _, eff in hat.outcomes:
        if not effect_from_linear(eff.coeffs).is_rank_one(tol):
            return False
    vecs = [e.coeffs for e in hat.effects]
    return geometry.rank(vecs, tol=tol) == len(vecs)


def noise_content(obs: QubitObservable,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Largest trivial weight in a convex decomposition of a qubit observable.

    The per-outcome bound m_x <= min eigenvalue of A_x is tight and sums
    directly: validity of the residual family only constrains each effect
    from below by the zero operator.
    """
    return sum(max(eff.min_eigenvalue(), 0.0) for eff in obs.effects)


def spectral_refiner(effect: Effect, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """Split a qubit effect (linear coordinates) into rank-one summands.

    The eigendecomposition gives at most two parts along the Bloch
    direction; a multiple of the identity is split along the z axis. The
    qubit stand-in for decomposition over dual-cone rays.
    """
    ex, ey, ez, tau = (float(x) for x in effect.coeffs)
    w0 = 2.0 * tau
    norm = math.sqrt(ex * ex + ey * ey + ez * ez)
    eps = tol.eps_compare
    if w0 <= eps and norm <= eps:
        return []
    if norm <= eps:
        c = w0 / 2.0
        return [Effect((0.0, 0.0, c, c / 2.0)), Effect((0.0, 0.0, -c, c / 2.0))]
    d = (ex / norm, ey / norm, ez / norm)
    lam_plus = (w0 + norm) / 2.0
    lam_minus = (w0 - norm) / 2.0
    parts = [Effect((lam_plus * d[0], lam_plus * d[1], lam_plus * d[2],
                     lam_plus / 2.0))]
    if lam_minus > eps:
        parts.append(Effect((-lam_minus * d[0], -lam_minus * d[1],
                             -lam_minus * d[2], lam_minus / 2.0)))
    return parts


def octahedron_margins(obs: QubitObservable) -> dict:
    """Per-outcome values |e0| + ||e||_1; at most one iff the effect is
    reachable with the three sharp orthogonal dichotomic observables."""
    out = {}
    for lab, eff in obs.outcomes:
        out[lab] = abs(eff.e0) + sum(abs(x) for x in eff.e_vec)
    return out


def random_qubit_observable(rng, n_outcomes: Optional[int] = None,
                            boundary_margin: Optional[float] = None,
                            max_tries: int = 200) -> QubitObservable:
    """Sample a valid qubit observable.

    Outcome weights w_x = 1 + e0_x are a random positive split of 2; Bloch
    parts are centered Gaussian directions scaled to keep each effect
    strictly valid. With `boundary_margin`, observables with any
    octahedron value within that margin of one are rejected and resampled,
    so the sample stays decidedly inside or outside the reach of the sharp
    orthogonal triple.
    """
    for _ in range(max_tries):
        k = n_outcomes if n_outcomes is not None else rng.randint(2, 5)
        raw = [rng.random() + 0.05 for _ in range(k)]
        total = sum(raw)
        w = [2.0 * r / total for r in raw]
        vecs = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(k)]
        mean = [sum(v[i] for v in vecs) / k for i in range(3)]
        vecs = [[v[i] - mean[i] for i in range(3)] for v in vecs]
        scale = None
        for wx, v in zip(w, vecs):
            norm = math.sqrt(sum(x * x for x in v))
            cap = min(wx, 2.0 - wx)
            if norm > 1e-12:
                s = cap / norm
                scale = s if scale is None else min(scale, s)
        if scale is None:
            continue
        gamma = 0.2 + 0.75 * rng.random()
        effs = [QubitEffect(wx - 1.0, tuple(gamma * scale * x for x in v))
                for wx, v in zip(w, vecs)]
        obs = QubitObservable(tuple((str(i + 1), e) for i, e in enumerate(effs)))
        if not obs.is_valid():
            continue
        if boundary_margin is not None:
            margins = octahedron_margins(obs).values()
            if any(abs(v - 1.0) < boundary_margin for v in margins):
                continue
        return obs
    raise RuntimeError("failed to sample a qubit observable within the margin")
