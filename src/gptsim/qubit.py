"""Qubit observables: `Observable`s over `QubitSpace`.

A qubit effect tau * id + e.sigma / 2 has the linear coordinates
(ex, ey, ez, tau): addition of effects is coordinatewise, the unit is
(0, 0, 0, 1) and the zero effect is the origin. In these coordinates the
qubit is a state space like the polytopes: `QubitSpace` answers the
effect-cone questions of `spaces` (rank one, spectral splitting, least
eigenvalue; rank-one effects over `sphere_directions` as generators, the
closed-form price 2 ||a|| + b, and a rotation to a canonical frame), so
validity, irreducibility, decomposition into irreducibles, noise content
and compatibility are the generic functions of `spaces` and `simulation`.
The rank-one generators are floats, so qubit compatibility is decided in
float arithmetic.

The paper writes the same effect as ((1 + e0) id + e.sigma) / 2, with the
bias e0 = 2 tau - 1: valid exactly when |e0| + ||e||_2 <= 1, and reachable
with the three sharp orthogonal dichotomic observables exactly when
|e0| + ||e||_1 <= 1 (`octahedron_margins`). That display form is only an
input and file format: `QubitEffect` reads it, and `serialize` writes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    ModeError,
    Tolerance,
    field,
    kind_of,
    resolve,
    rows_kind,
)
from .spaces import Effect, Observable, is_valid_observable


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

    def is_extremal(self, effects: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Rank one, for each effect (or row of an array of coefficients, as
        `spaces.StateSpace.is_extremal` takes): exactly one nonzero
        eigenvalue, ||e|| = 2 tau > 0, the norms from one `_norms` pass."""
        rows = effects if isinstance(effects, np.ndarray) else [e.coeffs for e in effects]
        F, rows, norms = self._norms(rows, tol, exact_roots=False)
        return [2 * row[3] > F.eps and norm is not None and abs(norm - 2 * row[3]) <= F.eps
                for row, norm in zip(rows, norms)]

    def refine(self, effects: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Split each effect into rank-one summands, the norms from one
        `_norms` pass.

        The eigendecomposition gives at most two parts along the Bloch
        direction; a multiple of the identity is split along the z axis.
        """
        F, rows, norms = self._norms([e.coeffs for e in effects], tol)
        eps = F.eps
        parts = []
        for (*bloch, tau), norm in zip(rows, norms):
            w0 = 2 * tau
            if w0 <= eps and norm <= eps:
                parts.append([])
            elif norm <= eps:
                c = F.coerce(tau)
                parts.append([Effect((F.zero, F.zero, c, c / 2)),
                              Effect((F.zero, F.zero, -c, c / 2))])
            else:
                d = tuple(x / norm for x in bloch)
                lam_plus = (w0 + norm) / 2
                lam_minus = (w0 - norm) / 2
                parts.append([Effect((*(lam_plus * x for x in d), lam_plus / 2))])
                if lam_minus > eps:
                    parts[-1].append(Effect((*(-lam_minus * x for x in d), lam_minus / 2)))
        return parts

    @staticmethod
    def _norms(effects: Sequence, tol: Tolerance, exact_roots: bool = True) -> tuple:
        """(field, coefficient rows, Bloch norms) of many effects (coefficient
        vectors, or an array of them) of one field, in one pass, each norm
        the root of x^2 + y^2 + z^2 summed in that order (`Field.sqrt`). An
        irrational exact norm raises ModeError, or is None when
        `exact_roots` is false; an effect of another dimension than 4
        raises ValueError."""
        F = resolve((rows_kind(effects, 4),), tol)
        rows = effects.tolist() if isinstance(effects, np.ndarray) else effects
        norms = [F.sqrt(x * x + y * y + z * z) for x, y, z, _ in rows]
        if exact_roots and None in norms:
            raise ModeError("exact qubit effect with an irrational Bloch norm")
        return F, rows, norms

    def min_values(self, effects: Sequence) -> list:
        """The least eigenvalue tau - ||e|| / 2 of each effect (`_norms`),
        the effects given as an array, or any iterable, read once."""
        effects = effects if isinstance(effects, np.ndarray) else list(effects)
        F, rows, norms = self._norms(effects, DEFAULT_TOLERANCE)
        return [F.coerce(e[3]) - norm / 2 for e, norm in zip(rows, norms)]

    def least_values(self, rows: Sequence, F) -> tuple:
        """(values, Q_s): the least eigenvalue of each row, rows of F's
        numbers over one scale, times Q_s (`min_values`): in exact mode,
        rows of Python ints, each value the integer 2 tau - ||e|| over
        Q_s = 2 (an irrational norm raises ModeError); in float mode over
        Q_s = 1."""
        values = self.min_values(rows)
        return (values, 1) if F.mode != EXACT else ([int(2 * v) for v in values], 2)

    def generators(self, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """The rank-one effects (d, 1/2) over `sphere_directions(128)`."""
        return list(rank_one_generators(128))

    def canonical_frame(self, effects: Sequence,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[np.ndarray]:
        """The rotation of the Bloch ball, as a 4 x 4 array T acting on
        coefficients (tau fixed), that sends the first Bloch part among the
        effects' longer than eps along z, and the next one whose part
        orthogonal to that is longer than eps into the xz-plane with x > 0.
        With no such second part, x is the axis least aligned with z, made
        orthogonal to it. None, the identity, when no Bloch part is longer
        than eps or the effects (coefficient rows, or an array of them, whose
        dtype is then their field) are not float: a rotation is float. A
        rotation is a symmetry of the qubit: it keeps the cone, the unit and
        `prices`."""
        effects = np.asarray(effects)
        if effects.dtype != float:
            return None
        eps, z, x = tol.eps, None, None
        for *bloch, _ in effects.tolist():
            if z is not None:
                along = sum(a * b for a, b in zip(bloch, z))
                bloch = [a - along * b for a, b in zip(bloch, z)]
            norm = math.sqrt(sum(a * a for a in bloch))
            if norm > eps:
                if z is not None:
                    x = [a / norm for a in bloch]
                    break
                z = [a / norm for a in bloch]
        if z is None:
            return None
        if x is None:
            k = min(range(3), key=lambda i: abs(z[i]))
            x = [(i == k) - z[k] * z[i] for i in range(3)]
            norm = math.sqrt(sum(a * a for a in x))
            x = [a / norm for a in x]
        y = [z[1] * x[2] - z[2] * x[1], z[2] * x[0] - z[0] * x[2], z[0] * x[1] - z[1] * x[0]]
        T = np.eye(4)
        T[:3, :3] = (x, y, z)
        return T

    def prices(self, Z: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """(values, effects): for each z = (a, b), a row of Z, 2 ||a|| + b,
        the largest value of z on an effect with tau = 1 (value one at the
        maximally mixed state), and the rank-one effect (a / ||a||, 1/2)
        that attains it up to a factor 2, (0, 0, 1, 1/2) when a = 0; the
        norms from `_norms`."""
        F, rows, norms = self._norms(Z, tol)
        half = F.one / 2
        return ([2 * norm + z[3] for z, norm in zip(rows, norms)],
                [(*(x / norm for x in z[:3]), half) if norm else (F.zero, F.zero, F.one, half)
                 for z, norm in zip(rows, norms)])


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


@lru_cache(maxsize=None)
def rank_one_generators(count: int) -> tuple:
    """The rank-one effects (d, 1/2) over `sphere_directions(count)`."""
    return tuple((*d, 0.5) for d in sphere_directions(count))


def QubitEffect(e0, e: Sequence) -> Effect:
    """The effect ((1 + e0) id + e.sigma) / 2 of bias e0 and Bloch vector e,
    in linear coordinates (ex, ey, ez, (1 + e0) / 2)."""
    e = tuple(e)
    if len(e) != 3:
        raise ValueError("Bloch part must be a 3-vector")
    F = field(kind_of((e0, *e)) or EXACT)
    return Effect((*e, (F.one + F.coerce(e0)) / 2))


def dichotomic(label_plus: str, label_minus: str, effect: Effect) -> Observable:
    """The qubit observable (effect, id - effect). The complement's Bloch
    part is negated rather than subtracted from zero, so a float 0.0 turns
    into -0.0 there."""
    *bloch, tau = effect.coeffs
    complement = Effect((*(-x for x in bloch), 1 - tau))
    return Observable(((label_plus, effect), (label_minus, complement)), QubitSpace())


def octahedron_margins(obs: Observable) -> dict:
    """Per-outcome values |e0| + ||e||_1, e0 = 2 tau - 1; at most one iff the
    effect is reachable with the three sharp orthogonal dichotomic
    observables."""
    if not isinstance(obs.space, QubitSpace):
        raise ValueError("octahedron margins are defined for qubit observables only")
    return {lab: abs(2 * eff.coeffs[3] - 1) + sum(abs(x) for x in eff.coeffs[:3])
            for lab, eff in obs.outcomes}


def random_qubit_observable(rng, n_outcomes: Optional[int] = None,
                            boundary_margin: Optional[float] = None,
                            max_tries: int = 200) -> Observable:
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
        obs = Observable(tuple((str(i + 1), e) for i, e in enumerate(effs)), QubitSpace())
        if not is_valid_observable(obs):
            continue
        if boundary_margin is not None:
            margins = octahedron_margins(obs).values()
            if any(abs(v - 1.0) < boundary_margin for v in margins):
                continue
        return obs
    raise RuntimeError("failed to sample a qubit observable within the margin")
