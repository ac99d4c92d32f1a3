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
extreme states have last coordinate one. Its refinements are lexicographic
conic decompositions over the dual-cone rays, which share one constraint
matrix per space: each refinement first tries the bases that earlier ones
ended on, kept beside the `dual_cone_rays` cache, and solves an LP only when
none of them is feasible for the effect (`StateSpace.refine`). The qubit's
cone lives in `qubit.QubitSpace`. Validity, indecomposability and
everything built on them (irreducibility, decomposition, noise content,
compatibility) go through these methods and so hold for either kind of
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    Tolerance,
    field,
    integer_row,
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
        """Tight-state rank test: the effect is at least -eps on every
        extreme state (it lies in the cone), and the extreme states it
        annihilates have rank exactly ambient_dim - 1. One product of the
        states with the effect gives both: the integer states
        (`_integer_states`) and the cleared effect in exact mode, a float
        array of the states in float mode."""
        if effect.dim != self.ambient_dim:
            raise ValueError(f"dimension mismatch {effect.dim} vs {self.ambient_dim}")
        F = resolve((self.kind, kind_of(effect.coeffs)), tol)
        if F.mode == FLOAT:  # a list, as Python reads a few floats faster than numpy
            values = (self._float_states @ np.array(effect.coeffs, dtype=float)).tolist()
        else:
            E, _ = integer_row(effect.coeffs)
            values = [sum(map(mul, E, s)) for s in self._integer_states[0]]
        if not min(values) >= -F.eps:  # a NaN coefficient makes every value NaN
            return False
        tight = [i for i, v in enumerate(values) if v <= F.eps]
        if len(tight) < self.ambient_dim - 1:
            return False
        states = [self.extreme_states[i] for i in tight]
        return geometry.rank(states, tol=tol, mode=F.mode) == self.ambient_dim - 1

    def refine(self, effect: "Effect", tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Decompose over the dual-cone extreme rays.

        The coefficients are the lexicographic maximum in the rays' canonical
        (sorted) order, so the decomposition is deterministic. The zero
        effect refines into the empty list, and a non-extremal effect outside
        the cone raises ValueError.

        A non-extremal effect v is first tried on the lexicographically
        optimal bases that earlier refinements over the same rays ended on
        (kept per (space, mode, tol) beside the `dual_cone_rays` cache, in
        insertion order): X = B^-1 v for every stored basis B at once, and
        the first X >= -eps gives the coefficients if they pass
        `geometry.replay_conic`. Otherwise `geometry.conic_decompose` solves
        its LP, and an answer with exactly dim positive coefficients stores
        its support as a new basis. This is exact, not a heuristic: such an
        answer is a nondegenerate vertex, so its one basis is optimal for
        the tie-broken objective c_0 + d c_1 + d^2 c_2 + ... at every small
        d > 0, which is what the lexicographic maximum is. Its reduced costs
        do not depend on v, so the basis stays optimal for every v it keeps
        primal feasible (Gal, "Postoptimal Analyses, Parametric Programming,
        and Related Topics", 1995), and the lexicographic maximum over a
        polytope is one point. Exact mode therefore returns the LP's own
        Fractions, and float mode agrees with the LP within rounding.
        """
        F = resolve((self.kind, kind_of(effect.coeffs)), tol)
        if F.is_zero(effect.coeffs):
            return []
        if self.is_extremal(effect, tol):
            return [effect]
        rays = dual_cone_rays(self, tol)
        key = (self, self.mode, F.mode, tol)
        bases = _BASES.get(key)
        if bases is None:
            bases = _BASES[key] = _Bases(rays, F)
        coefficients = bases.decide(effect.coeffs)
        if coefficients is None:
            res = geometry.conic_decompose(effect.coeffs, rays, mode=F.mode, tol=tol)
            if not res.inside:
                raise ValueError("effect lies outside the positive dual cone")
            coefficients = res.coefficients
            bases.add(coefficients)
        return [Effect(vscale(c, r)) for c, r in zip(coefficients, rays) if c > F.eps]

    @cached_property
    def _float_states(self) -> np.ndarray:
        """The extreme states as one float array, a row each: made once per
        space on the first float `is_extremal`."""
        return np.array(self.extreme_states, dtype=float).reshape(-1, self.ambient_dim)

    @cached_property
    def _integer_states(self) -> tuple:
        """The extreme states as integer tuples over one positive denominator
        D, as (states, D): made once per space on the first exact
        `min_value` or `is_extremal`; a float raises ValueError."""
        flat, D = integer_row([x for s in self.extreme_states for x in s])
        n = self.ambient_dim
        return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), D

    def min_value(self, effect: "Effect"):
        """The least value of the effect over the extreme states. With no
        float on either side, the effect cleared to integers E over L and the
        states to S over D give it as the one Fraction min_S (E . S) / (L D);
        otherwise, or when the dimensions differ, it is min effect(s)."""
        if self.kind != FLOAT and effect.dim == self.ambient_dim:
            try:
                E, L = integer_row(effect.coeffs)
            except ValueError:  # a float effect
                pass
            else:
                states, D = self._integer_states
                return Fraction(min(sum(map(mul, E, s)) for s in states), L * D)
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
        if not fixed:
            raise ValueError("an observable needs at least one outcome")
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

    @cached_property
    def coefficient_key(self) -> "CoefficientKey":
        """The effects' coefficients in order, as a key hashed once per
        observable: equal for observables with equal coefficients, whatever
        their labels and space."""
        return CoefficientKey(tuple(eff.coeffs for eff in self.effects), self.kind)

    @cached_property
    def effect_sum(self) -> tuple:
        """The coefficients of the sum of the effects: the unit for a valid
        observable."""
        total = self.effects[0].coeffs
        for eff in self.effects[1:]:
            total = tuple(a + b for a, b in zip(total, eff.coeffs))
        return total

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def unit_coeffs(self) -> tuple:
        return tuple(self.space.unit) if self.space is not None else self.effect_sum

    def as_float(self) -> "Observable":
        return Observable(tuple((lab, eff.as_float()) for lab, eff in self.outcomes),
                          self.space.as_float() if self.space is not None else None)

    def relabelled(self, mapping: dict) -> "Observable":
        return Observable(tuple((mapping.get(lab, lab), eff)
                                for lab, eff in self.outcomes), self.space)


class CoefficientKey:
    """A tuple of coefficient tuples with its hash computed once. Exact and
    integer coefficients hash by their numerators, in a fraction of the time
    of a `Fraction` hash. Equal keys of one kind hash equal; an integer key
    and an equal float key may not, which costs a lookup a miss, never a
    wrong match."""

    __slots__ = ("values", "_hash")

    def __init__(self, values: tuple, kind):
        self.values = values
        self._hash = hash(values if kind == FLOAT else
                          tuple(x.numerator for vector in values for x in vector))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, CoefficientKey) and self.values == other.values


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
    if len(set(obs.labels)) != obs.n_outcomes:
        return False
    if space is None:
        return True
    eps = field(obs.mode, tol).eps
    return (all(is_valid_effect(e, space, tol) for e in obs.effects)
            and all(abs(a - b) <= eps for a, b in zip(obs.effect_sum, space.unit)))


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
    `dual_cone_rays.cache_clear()` also empties every store listed in
    `dual_cone_rays.stores`: the bases that `refine` keeps beside this cache,
    and the simulation-set store of `simulation.is_simulable` (bases and
    refutations per simulation set), which that module adds on import.
    """
    return _dual_cone_rays(space, space.mode, tol)


@lru_cache(maxsize=None)
def _dual_cone_rays(space: StateSpace, mode: str, tol: Tolerance) -> tuple:
    return tuple(geometry.extreme_rays(space.extreme_states, mode=mode, tol=tol))


class _Bases:
    """The lexicographically optimal bases of the refinements over one
    space's rays in one field F, in insertion order: each a support (ray
    indices, one per dimension) and the inverse of its ray columns, all the
    inverses stacked in one array of `F.dtype`. The rays are held in F's
    numbers, so that a float effect on an integer space reads float ones."""

    def __init__(self, rays: tuple, F):
        self.F = F
        self.rays = tuple(tuple(map(F.coerce, r)) for r in rays)
        self.dim = len(self.rays[0])
        self.supports = []
        self.inverses = np.empty((0, self.dim, self.dim), dtype=F.dtype)

    def decide(self, v: Sequence) -> Optional[list]:
        """The coefficients over the rays from the first stored basis B with
        B^-1 v >= -eps, if they pass `geometry.replay_conic` on the basis's
        rays (the other coefficients are zero); else None."""
        if not self.supports:
            return None
        F = self.F
        X = self.inverses @ np.array(v, dtype=F.dtype)
        feasible = np.flatnonzero((X >= -F.eps).all(axis=1))
        if not feasible.size:
            return None
        support, x = self.supports[feasible[0]], X[feasible[0]].tolist()
        res = geometry.ConicResult(geometry.INSIDE, coefficients=tuple(x))
        if not geometry.replay_conic(res, v, [self.rays[j] for j in support], F.tol):
            return None
        coefficients = [F.zero] * len(self.rays)
        for j, c in zip(support, x):
            coefficients[j] = c
        return coefficients

    def add(self, coefficients: Sequence):
        """Store the support of an LP answer with exactly dim positive
        coefficients, unless it is stored already or its rays are singular."""
        F, d = self.F, self.dim
        support = tuple(j for j, c in enumerate(coefficients) if c > F.eps)
        if len(support) != d or support in self.supports:
            return
        inverse = geometry.inverse([[self.rays[j][i] for j in support] for i in range(d)],
                                   F.tol, F.mode)
        if inverse is not None:
            self.supports.append(support)
            self.inverses = np.concatenate(
                [self.inverses, np.array([inverse], dtype=F.dtype)])


_BASES = {}  # (space, rays mode, field mode, tol) -> _Bases


def _cache_clear():
    _dual_cone_rays.cache_clear()
    for store in dual_cone_rays.stores:
        store.clear()


dual_cone_rays.cache_info = _dual_cone_rays.cache_info
dual_cone_rays.cache_clear = _cache_clear
dual_cone_rays.stores = [_BASES]  # each emptied by cache_clear()


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
