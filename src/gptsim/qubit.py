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

In linear coordinates the qubit is a state space like the polytopes:
`QubitSpace` answers the effect-cone questions of `spaces` (rank one,
spectral splitting, least eigenvalue; rank-one effects over
`sphere_directions` as generators and the closed-form price 2 ||a|| + b),
and `as_vector_observable` attaches it, so irreducibility, decomposition
into irreducibles, noise content and compatibility are the generic
functions of `simulation`. The rank-one generators are floats, so qubit
compatibility is decided in float arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    ModeError,
    Tolerance,
    field,
    kind_of,
    resolve,
)
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
            <= 1 + tol.eps

    def complement(self) -> "QubitEffect":
        return QubitEffect(-self.e0, tuple(-x for x in self.e_vec))


@dataclass(frozen=True)
class QubitSpace:
    """The qubit effect cone in linear coordinates (ex, ey, ez, tau).

    The effect tau * id + e.sigma / 2 has eigenvalues tau +- ||e|| / 2. Its
    data is integer-only, so it joins exact and float observables alike;
    square roots go through `Field.sqrt`, and an exact effect whose Bloch
    norm is irrational raises ModeError wherever the norm itself is needed.
    """

    name = "qubit"
    ambient_dim = 4
    unit = (0, 0, 0, 1)
    kind = None

    def as_float(self) -> "QubitSpace":
        return self

    @staticmethod
    def _spectrum(effect: Effect, tol: Tolerance):
        """The field of the effect, tau, the Bloch part and its norm."""
        *bloch, tau = effect.coeffs
        F = resolve((kind_of(effect.coeffs),), tol)
        return F, tau, bloch, F.sqrt(sum(x * x for x in bloch))

    def is_extremal(self, effect: Effect, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Rank one: exactly one nonzero eigenvalue, ||e|| = 2 tau > 0."""
        F, tau, _, norm = self._spectrum(effect, tol)
        w0 = 2 * tau
        return w0 > F.eps and norm is not None and abs(norm - w0) <= F.eps

    def refine(self, effect: Effect, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Split an effect into rank-one summands.

        The eigendecomposition gives at most two parts along the Bloch
        direction; a multiple of the identity is split along the z axis.
        """
        F, tau, bloch, norm = self._spectrum(effect, tol)
        if norm is None:
            raise ModeError("exact qubit effect with an irrational Bloch norm")
        w0 = 2 * tau
        eps = F.eps
        if w0 <= eps and norm <= eps:
            return []
        if norm <= eps:
            c = F.coerce(tau)
            return [Effect((F.zero, F.zero, c, c / 2)), Effect((F.zero, F.zero, -c, c / 2))]
        d = tuple(x / norm for x in bloch)
        lam_plus = (w0 + norm) / 2
        lam_minus = (w0 - norm) / 2
        parts = [Effect((*(lam_plus * x for x in d), lam_plus / 2))]
        if lam_minus > eps:
            parts.append(Effect((*(-lam_minus * x for x in d), lam_minus / 2)))
        return parts

    def min_value(self, effect: Effect):
        """The least eigenvalue, tau - ||e|| / 2."""
        F, tau, _, norm = self._spectrum(effect, DEFAULT_TOLERANCE)
        if norm is None:
            raise ModeError("exact qubit effect with an irrational Bloch norm")
        return F.coerce(tau) - norm / 2

    def generators(self, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """The rank-one effects (d, 1/2) over `sphere_directions(128)`."""
        return [(*d, 0.5) for d in sphere_directions(128)]

    def price(self, z: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """2 ||a|| + b for z = (a, b), the largest value of z on an effect
        with tau = 1 (value one at the maximally mixed state), and the
        rank-one effect (a / ||a||, 1/2) that attains it up to a factor 2."""
        F, b, a, norm = self._spectrum(Effect(tuple(z)), tol)
        if norm is None:
            raise ModeError("exact qubit functional with an irrational Bloch norm")
        d = tuple(x / norm for x in a) if norm else (F.zero, F.zero, F.one)
        return 2 * norm + b, (*d, F.one / 2)


@lru_cache(maxsize=None)
def sphere_directions(count: int) -> tuple:
    """Deterministic well-spread unit directions: the 26 normalized sign-grid
    directions (corners, axes, edge midpoints) first, then a golden-angle
    spiral."""
    if count < 8:
        raise ValueError("at least 8 facet directions are required")
    grid = list(itertools.product((-1.0, 0.0, 1.0), repeat=3))
    ordered = [d for k in (3, 1, 2) for d in grid if sum(abs(x) for x in d) == k]
    dirs = [tuple(x / math.sqrt(sum(v * v for v in d)) for x in d) for d in ordered][:count]
    i = 0
    golden = math.pi * (3.0 - math.sqrt(5.0))
    while len(dirs) < count:
        z = 1.0 - 2.0 * (i + 0.5) / (count - 25)
        z = max(-1.0, min(1.0, z))
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        dirs.append((r * math.cos(phi), r * math.sin(phi), z))
        i += 1
    return tuple(dirs)


def linear_coords(effect: QubitEffect) -> tuple:
    """Linear coordinates (ex, ey, ez, (1+e0)/2); addition of effects is
    coordinatewise, the unit is (0,0,0,1) and the zero effect is the origin."""
    F = field(effect.mode)
    return (*effect.e_vec, (F.one + F.coerce(effect.e0)) / 2)


@dataclass(frozen=True)
class QubitObservable:
    """Finite family of qubit effects with biases and Bloch parts summing
    to the identity."""

    outcomes: tuple  # of (label, QubitEffect)

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes",
            tuple((str(lab), eff) for lab, eff in self.outcomes))

    @cached_property
    def labels(self) -> tuple:
        return tuple(lab for lab, _ in self.outcomes)

    @cached_property
    def effects(self) -> tuple:
        return tuple(eff for _, eff in self.outcomes)

    def is_valid(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        eps = field(self.mode, tol).eps
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
                            for lab, eff in obs.outcomes), QubitSpace())


def dichotomic(label_plus: str, label_minus: str, effect: QubitEffect) -> QubitObservable:
    return QubitObservable(((label_plus, effect), (label_minus, effect.complement())))


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
