"""State spaces, effects, observables, and their structural predicates.

Effects are dual vectors evaluated by the dot product; observables are
finite labelled families of effects summing to the unit. A state space is
known through its effect cone, and every space answers these questions
about it:

* `is_extremal(effect, tol)`: does the effect span an extreme ray of the
  cone (is it indecomposable)?
* `refine(effect, tol)`: the effect written as a sum of such extreme effects;
* `min_value(effect)`: the least value of the effect on a state, so that an
  effect lies in the cone exactly when its minimum is nonnegative;
* `generators(tol)` and `price(z, tol)`, for `simulation.is_compatible`:
  extreme effects that start the joint-observable program, and the largest
  value of the functional z on an effect of unit weight at a fixed interior
  state, with an extreme effect (up to a positive factor) attaining it.

`StateSpace` is a polytope, given by its extreme states in a
(d+1)-dimensional ambient space together with the unit functional, with the
convention that the unit coefficient sits in the last ambient slot and
extreme states have last coordinate one. The qubit's cone lives in
`qubit.QubitSpace`. Validity, indecomposability and everything built on
them (irreducibility, decomposition, noise content, compatibility) go
through these methods and so hold for either kind of space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from . import geometry
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    Tolerance,
    field,
    kind_of,
    resolve,
    to_float_vector,
    vdot,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class StateSpace:
    """Polytopic state space: extreme states plus the unit functional."""

    name: str
    ambient_dim: int
    extreme_states: tuple
    unit: tuple

    def __post_init__(self):
        object.__setattr__(self, "extreme_states",
                           tuple(tuple(s) for s in self.extreme_states))
        object.__setattr__(self, "unit", tuple(self.unit))
        for s in self.extreme_states:
            if len(s) != self.ambient_dim:
                raise ValueError("state dimension does not match ambient_dim")
        if len(self.unit) != self.ambient_dim:
            raise ValueError("unit dimension does not match ambient_dim")

    @cached_property
    def kind(self):
        """EXACT, FLOAT, or None when every coordinate is an integer."""
        return kind_of(x for v in (*self.extreme_states, self.unit) for x in v)

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def as_float(self) -> "StateSpace":
        return StateSpace(self.name, self.ambient_dim,
                          tuple(to_float_vector(s) for s in self.extreme_states),
                          to_float_vector(self.unit))

    def is_extremal(self, effect: "Effect", tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Tight-state rank test: the extreme states the effect annihilates
        must have rank exactly ambient_dim - 1."""
        F = resolve((self.kind, kind_of(effect.coeffs)), tol)
        tight = [s for s in self.extreme_states if abs(effect(s)) <= F.eps]
        return geometry.rank(tight, tol=tol, mode=F.mode) == self.ambient_dim - 1

    def refine(self, effect: "Effect", tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Decompose over the dual-cone extreme rays.

        The coefficients are the lexicographic maximum in the rays' canonical
        (sorted) order, so the decomposition is deterministic. The zero
        effect refines into the empty list.
        """
        F = resolve((self.kind, kind_of(effect.coeffs)), tol)
        if F.is_zero(effect.coeffs):
            return []
        if self.is_extremal(effect, tol):
            return [effect]
        rays = dual_cone_rays(self, tol)
        res = geometry.conic_decompose(effect.coeffs, rays, mode=F.mode, tol=tol)
        if not res.inside:
            raise ValueError("effect lies outside the positive dual cone")
        return [Effect(vscale(c, r)) for c, r in zip(res.coefficients, rays)
                if c > F.eps]

    def min_value(self, effect: "Effect"):
        """The least value of the effect over the extreme states."""
        return min(effect(s) for s in self.extreme_states)

    def generators(self, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """Every dual-cone extreme ray."""
        return dual_cone_rays(self, tol)

    def price(self, z: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """max over rays r of z.r / r(c), c the barycenter of the extreme
        states, and a ray that attains it."""
        n = len(self.extreme_states)
        c = [field(self.mode).coerce(sum(x)) / n for x in zip(*self.extreme_states)]
        return max(((vdot(z, r) / vdot(r, c), r) for r in dual_cone_rays(self, tol)),
                   key=lambda pair: pair[0])


@dataclass(frozen=True)
class Effect:
    """Dual-space coefficient vector; e(s) is the dot product with s."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __call__(self, state: Sequence):
        return vdot(self.coeffs, state)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def as_float(self) -> "Effect":
        return Effect(to_float_vector(self.coeffs))


@dataclass(frozen=True)
class Observable:
    """Finite outcome-labelled family of effects summing to the unit."""

    outcomes: tuple  # of (label, Effect)
    space: Optional[StateSpace] = None

    def __post_init__(self):
        fixed = []
        for label, eff in self.outcomes:
            if not isinstance(eff, Effect):
                eff = Effect(tuple(eff))
            fixed.append((str(label), eff))
        object.__setattr__(self, "outcomes", tuple(fixed))

    @cached_property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.outcomes)

    @cached_property
    def effects(self) -> tuple:
        return tuple(eff for _, eff in self.outcomes)

    def effect(self, label: str) -> Effect:
        for lab, eff in self.outcomes:
            if lab == label:
                return eff
        raise KeyError(label)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim

    @cached_property
    def kind(self):
        """EXACT, FLOAT, or None when every coefficient is an integer."""
        return kind_of(x for _, e in self.outcomes for x in e.coeffs)

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def unit_coeffs(self) -> tuple:
        if self.space is not None:
            return tuple(self.space.unit)
        total = self.effects[0].coeffs
        for eff in self.effects[1:]:
            total = tuple(a + b for a, b in zip(total, eff.coeffs))
        return total

    def as_float(self) -> "Observable":
        return Observable(tuple((lab, eff.as_float()) for lab, eff in self.outcomes),
                          self.space.as_float() if self.space is not None else None)

    def relabelled(self, mapping: dict) -> "Observable":
        return Observable(tuple((mapping.get(lab, lab), eff)
                                for lab, eff in self.outcomes), self.space)


def observable(space: Optional[StateSpace], items) -> Observable:
    """Build an Observable from (label, coefficient-vector) pairs."""
    return Observable(tuple((lab, Effect(tuple(vec))) for lab, vec in items), space)


@dataclass(frozen=True)
class SpaceDiagnostics:
    valid: bool
    issues: tuple


def validate_state_space(space: StateSpace,
                         tol: Tolerance = DEFAULT_TOLERANCE) -> SpaceDiagnostics:
    """Check normalization, spanning, and irredundancy of the extreme states.

    Diagnostics only; never raises.
    """
    issues = []
    F = field(space.mode, tol)
    if not space.extreme_states:
        return SpaceDiagnostics(False, ("no extreme states",))
    for k, s in enumerate(space.extreme_states):
        val = vdot(space.unit, s)
        if abs(val - 1) > F.eps:
            issues.append(f"state {k}: unit(s) = {val}, expected 1")
    r = geometry.rank(space.extreme_states, tol=tol, mode=F.mode)
    if r != space.ambient_dim:
        issues.append(
            f"extreme states span a {r}-dimensional subspace of the "
            f"{space.ambient_dim}-dimensional ambient space")
    seen = {}
    for k, s in enumerate(space.extreme_states):
        key = F.key(s)
        if key in seen:
            issues.append(f"state {k} duplicates state {seen[key]}")
        else:
            seen[key] = k
    if len(space.extreme_states) > 2:
        for k, s in enumerate(space.extreme_states):
            others = [t for i, t in enumerate(space.extreme_states) if i != k]
            res = geometry.in_convex_hull(s, others, mode=F.mode, tol=tol)
            if res.inside:
                issues.append(f"state {k} is a convex combination of the others")
    return SpaceDiagnostics(not issues, tuple(issues))


def is_valid_effect(effect: Effect, space,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff 0 <= e <= u: both e and u - e have a nonnegative minimum."""
    if effect.dim != space.ambient_dim:
        raise ValueError("effect dimension does not match state space")
    eps = resolve((space.kind, kind_of(effect.coeffs)), tol).eps
    rest = Effect(vsub(space.unit, effect.coeffs))
    return space.min_value(effect) >= -eps and space.min_value(rest) >= -eps


def is_valid_observable(obs: Observable, space: Optional[StateSpace] = None,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Labels distinct, effects valid (when a space is known), sum equals u."""
    space = space if space is not None else obs.space
    labels = obs.labels
    if len(set(labels)) != len(labels):
        return False
    eps = field(obs.mode, tol).eps
    if space is not None:
        if any(not is_valid_effect(e, space, tol) for e in obs.effects):
            return False
        unit = space.unit
        total = [sum(e.coeffs[i] for e in obs.effects) for i in range(obs.dim)]
        return all(abs(a - b) <= eps for a, b in zip(total, unit))
    return True


def trivial_observable(space: StateSpace, dist) -> Observable:
    """Observable with effects t(x) * u for the given (label, weight) pairs,
    whose sum is 1 within the eps of their own field (0 in exact mode)."""
    weights = [w for _, w in dist]
    if not abs(sum(weights) - 1) <= resolve([kind_of(weights)]).eps:  # NaN fails too
        raise ValueError("trivial observable weights must sum to 1")
    return Observable(tuple((lab, Effect(vscale(w, space.unit))) for lab, w in dist),
                      space)


def mix_observables(observables: Sequence[Observable], weights) -> Observable:
    """Convex mixture on the union outcome set, without tracking the choice.

    Observables are zero-extended to the union of their label sets (order of
    first appearance) before the weighted sum.
    """
    if len(observables) != len(weights):
        raise ValueError("one weight per observable required")
    labels = []
    for obs in observables:
        for lab in obs.labels:
            if lab not in labels:
                labels.append(lab)
    dim = observables[0].dim
    F = resolve([kind_of(weights), *(o.kind for o in observables)])
    zero = (F.zero,) * dim
    out = []
    for lab in labels:
        acc = zero
        for w, obs in zip(weights, observables):
            if lab in obs.labels:
                acc = tuple(a + w * c for a, c in zip(acc, obs.effect(lab).coeffs))
        out.append((lab, Effect(acc)))
    return Observable(tuple(out), observables[0].space)


def dual_cone_rays(space: StateSpace, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
    """Canonical extreme rays of the positive dual cone {e : e(s) >= 0}.

    Cached per (space, mode, tol): a float twin (`space.as_float()`) compares
    and hashes equal to its exact space but needs rays of its own mode.
    """
    return _dual_cone_rays(space, space.mode, tol)


@lru_cache(maxsize=None)
def _dual_cone_rays(space: StateSpace, mode: str, tol: Tolerance) -> tuple:
    return tuple(geometry.extreme_rays(space.extreme_states, mode=mode, tol=tol))


dual_cone_rays.cache_info = _dual_cone_rays.cache_info
dual_cone_rays.cache_clear = _dual_cone_rays.cache_clear


def is_indecomposable(effect: Effect, space,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the effect spans an extreme ray of the space's effect cone.

    Zero effects are rejected.
    """
    if resolve((space.kind, kind_of(effect.coeffs)), tol).is_zero(effect.coeffs):
        raise ValueError("indecomposability is defined for nonzero effects only")
    return space.is_extremal(effect, tol)


def decompose_into_indecomposables(effect: Effect, space,
                                   tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """Write a valid effect as a finite sum of indecomposable effects
    (`space.refine`). The zero effect decomposes into the empty list."""
    return space.refine(effect, tol)


def is_informationally_complete(obs: Observable, space: Optional[StateSpace] = None,
                                tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the effect coefficient vectors span the ambient space."""
    dim = (space or obs.space).ambient_dim if (space or obs.space) else obs.dim
    return geometry.rank([e.coeffs for e in obs.effects], tol=tol) == dim
