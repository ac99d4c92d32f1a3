"""State spaces, effects, observables, and their structural predicates.

Effects are dual vectors evaluated by the dot product; observables are
finite labelled families of effects summing to the unit. A state space is
known through its effect cone, and every space answers these questions
about it:

* `is_extremal(effects, tol)`: for each effect (or row of an array of
  coefficients), does it span an extreme ray of the cone (is it
  indecomposable)?
* `refine(effects, tol)`: each effect written as a sum of such extreme
  effects;
* `min_values(effects)`: the least value on a state of each effect (a
  coefficient vector, or a row of an array), so that an effect lies in the
  cone exactly when its minimum is nonnegative;
* `least_values(rows, F)`: the same minima of rows already over one scale
  (integers in exact mode, read as they are), each times a scale Q_s of
  the space's own, so that an exact minimum is one integer.

These take every effect of a question at once, in one field for the
space and all of them. Validity reads the effects once, as one array A, a
row each: `is_valid_effect` and `valid_effect_rows` (behind
`are_valid_observables` and `simulation.is_compatible`, which keeps A) ask
`min_values` about [A; u - A] and sum each observable's rows in order;
`simulation.noise_content` asks `least_values` about its target's
`cleared_rows`, and the compatibility replay about all its joint effects,
cleared over one scale;
`postprocessing.is_postprocessing_clean` asks `is_extremal` about one
array of every nonzero effect of an observable,
`simulation.is_simulation_irreducible` about one array of the nonzero rows
of its minimally sufficient form (`postprocessing.proportional_groups`), and
`simulation.decompose_to_irreducibles` asks `refine` about every effect of
its target. The one-effect `is_indecomposable` and
`decompose_into_indecomposables` wrap them. The other calls serve
compatibility:

* `generators(tol)` and `prices(Z, tol)`, for `simulation.is_compatible`:
  extreme effects that start the joint-observable program, and for each
  functional z, a row of Z, the largest value of z on an effect of unit
  weight at a fixed interior state, with an extreme effect (up to a
  positive factor) attaining it; one call prices every joint outcome;
* `canonical_frame(effects, tol)`: a symmetry of the space, a linear map T
  of effect coefficients (None for the identity) that preserves the cone,
  the unit and `prices`, and moves the given effects to a position fixed by
  their geometry, so that `simulation.is_compatible` reads the answers it
  stored for one set of targets for every image of it under a symmetry.

`StateSpace` is a polytope, given by its extreme states in a
(d+1)-dimensional ambient space together with the unit functional, with the
convention that the unit coefficient sits in the last ambient slot and
extreme states have last coordinate one. Its extremality test ranks the
extreme states on which an effect vanishes, and keeps the rank of each
such tight set, of which a polytope has one per face
(`StateSpace._face_ranks`). Its refinements are lexicographic conic
decompositions over the dual-cone rays, which share one constraint matrix
per space: each refinement first tries the bases that earlier ones ended
on (an `lp.Answers`), and solves an LP only when none of them is feasible
for the effect (`StateSpace.refine`). The qubit's
cone lives in `qubit.QubitSpace`. Validity, indecomposability and
everything built on them (irreducibility, decomposition, noise content,
compatibility) go through these methods and so hold for either kind of
space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional, Sequence

import numpy as np

from . import geometry, lp
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ModeError,
    Tolerance,
    cleared,
    dots,
    field,
    integer_row,
    kind_of,
    require_dim,
    resolve,
    rows_kind,
    to_float_vector,
    vdot,
    vscale,
)

# Tight sets whose rank one space keeps (`StateSpace._face_ranks`).
_FACE_RANKS = 1024


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
        """The space over floats: itself when every coordinate is a float,
        else the one float twin of this space (`_float_twin`)."""
        return self._float_twin

    @cached_property
    def _float_twin(self) -> "StateSpace":
        """The float twin, made once per space as `_face_ranks`,
        `_float_states` and `_integer_states` are: every `as_float()` of one
        space is one object, so the twin's own caches are built once."""
        if all(type(x) is float for v in (*self.extreme_states, self.unit) for x in v):
            return self
        return StateSpace(self.name, self.ambient_dim,
                          tuple(to_float_vector(s) for s in self.extreme_states),
                          to_float_vector(self.unit))

    def is_extremal(self, effects: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """The tight-state rank test, one bool per effect: the effect is at
        least -eps on every extreme state (it lies in the cone), and the
        extreme states it annihilates, its tight set, have rank exactly
        ambient_dim - 1. One field is resolved over the space and every
        effect (`_field`), and one product of the states with the effects
        gives all their values (`_values`).

        The rank of a tight set is computed once per space and kept
        (`_face_ranks`), keyed by (state indices, mode, tolerance). The
        cache is exact: the rank is a function of the states the indices
        name, the mode and the tolerance alone, whatever effect met the
        set, so a kept rank is the rank computed afresh. It is bounded: an
        effect in the cone vanishes exactly on the extreme states of a face
        of the polytope, so exact mode keeps at most one rank per face (a
        polygon's extreme effects meet its n edges, every effect on one ray
        the same edge), and float mode's sets within eps of zero lie near
        faces; past `_FACE_RANKS` keys a new set is ranked and not kept.
        The effects may come as an array of their coefficient rows, whose
        float dtype gives the field without a scan (`rows_kind`)."""
        rows = effects if isinstance(effects, np.ndarray) else [e.coeffs for e in effects]
        F = self._field(rows, tol)
        return [self._extremal(values, F) for values in self._values(rows, F)]

    def _field(self, rows: Sequence, tol: Tolerance):
        """The field of the space and the coefficient vectors together: a
        vector of another dimension than the space raises ValueError, and
        exact and float numbers together ModeError."""
        return resolve((self.kind, rows_kind(rows, self.ambient_dim)), tol)

    def _values(self, rows: Sequence, F) -> list:
        """The values of each coefficient vector on the extreme states, a
        list each: in exact mode integer products of the cleared vector with
        the integer states (`_integer_states`), in float mode one product of
        the float states with every vector, whose (vectors, dim, 1) operand
        makes numpy's matmul call the matrix-vector kernel once per vector,
        so that each value is the float of `states @ e` for that vector
        alone, bit for bit (a (dim, vectors) operand would go to the
        matrix-matrix kernel, which rounds otherwise)."""
        if F.mode == FLOAT:
            E = np.array(rows, dtype=float).reshape(-1, self.ambient_dim)
            return (self._float_states @ E[:, :, None])[:, :, 0].tolist()
        states = self._integer_states[0]
        return [[sum(map(mul, E, s)) for s in states] for E, _ in map(integer_row, rows)]

    def _extremal(self, values: list, F) -> bool:
        """The rank test on one effect's values (a list, as Python reads a
        few numbers faster than numpy)."""
        if not min(values) >= -F.eps:  # a NaN coefficient makes every value NaN
            return False
        tight = tuple(i for i, v in enumerate(values) if v <= F.eps)
        if len(tight) < self.ambient_dim - 1:
            return False
        key = (tight, F.mode, F.tol)
        rank = self._face_ranks.get(key)
        if rank is None:
            rank = geometry.rank([self.extreme_states[i] for i in tight], tol=F.tol, mode=F.mode)
            if len(self._face_ranks) < _FACE_RANKS:
                self._face_ranks[key] = rank
        return rank == self.ambient_dim - 1

    @cached_property
    def _face_ranks(self) -> dict:
        """The rank of each tight set that `is_extremal` has ranked, by
        (state indices, mode, tolerance): made empty once per space, next
        to `_float_states` and `_integer_states`."""
        return {}

    def refine(self, effects: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
        """Decompose each effect over the dual-cone extreme rays: one list of
        parts per effect, in one field (`_field`). The effects may come as
        any iterable, read once.

        The coefficients are the lexicographic maximum in the rays' canonical
        (sorted) order, so the decomposition is deterministic. The zero
        effect refines into the empty list, and an extremal one
        (`is_extremal`) into itself; an effect of another dimension than the
        space, zero or not, and a non-extremal effect outside the cone raise
        ValueError.

        The non-extremal effects are first tried on the bases that earlier
        refinements over the same rays ended on, all of them in one scan of
        the store (`lp.Answers.decide`, b an effect's coefficients), whose
        hits are replayed in one call (`_Bases.solved`); a hit that fails
        its replay is a miss. Each effect that no stored basis decides, in
        order, is tried again on every basis once this call has stored one,
        and otherwise has its LP solved by `geometry.conic_decompose`; an
        answer with exactly dim positive coefficients keeps the LP's basis
        with its B^-1 at once (`lp.Answers.keep_basis`, keyed by its set of
        rays). So the parts and the stored bases, in their order, are those
        that one call per effect makes. A stored basis is a nondegenerate vertex,
        which is optimal for the tie-broken objective c_0 + d c_1 + d^2 c_2
        + ... at every small d > 0 whatever the effect, so exact mode returns
        the LP's own Fractions, and float mode agrees with the LP within
        rounding.
        """
        effects = list(effects)
        F = self._field([e.coeffs for e in effects], tol)
        nonzero = [k for k, e in enumerate(effects) if not F.is_zero(e.coeffs)]
        parts, todo = [[] for _ in effects], []
        for k, values in zip(nonzero, self._values([effects[k].coeffs for k in nonzero], F)):
            if self._extremal(values, F):
                parts[k] = [effects[k]]
            else:
                todo.append(k)
        if not todo:
            return parts
        rays = dual_cone_rays(self, tol)
        store = lp.answers(("refinement", self, self.mode, F.mode, tol), lambda: _Bases(rays, F))
        vectors = [effects[k].coeffs for k in todo]
        bs, Ls = zip(*(cleared(F, v) for v in vectors))
        found, stored = [c for c, _ in store.decide(bs, Ls, vectors)], len(store.bases)
        for i, v in enumerate(vectors):
            if found[i] is None and len(store.bases) > stored:
                ((found[i], _),) = store.decide(bs[i:i + 1], Ls[i:i + 1], [v])
            if found[i] is None:
                res = geometry.conic_decompose(v, rays, mode=F.mode, tol=tol)
                if not res.inside:
                    raise ValueError("effect lies outside the positive dual cone")
                found[i] = res.coefficients
                store.keep_basis(res)
        for k, coefficients in zip(todo, found):
            parts[k] = [Effect(vscale(c, r)) for c, r in zip(coefficients, rays) if c > F.eps]
        return parts

    @cached_property
    def _float_states(self) -> np.ndarray:
        """The extreme states as one float array, a row each: made once per
        space on the first float `is_extremal` or `min_values`."""
        return np.array(self.extreme_states, dtype=float).reshape(-1, self.ambient_dim)

    @cached_property
    def _integer_states(self) -> tuple:
        """The extreme states as integer tuples over one positive denominator
        D, as (states, D): made once per space on the first exact
        `min_values` or `is_extremal`; a float raises ValueError."""
        flat, D = integer_row([x for s in self.extreme_states for x in s])
        n = self.ambient_dim
        return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), D

    def min_values(self, effects: Sequence) -> list:
        """The least value over the extreme states of each effect (a
        coefficient vector, or a row of an array), from `least_values`: with
        no float on either side, the effects cleared together to integer
        rows over L (one `integer_row` for them all, L = 1 for rows of
        ints), each minimum the one Fraction of the integer minimum over
        L Q_s; otherwise the float values as `least_values` gives them. An
        effect of another dimension than the space raises ValueError, and a
        float one on a space with a Fraction in it ModeError. Effects other
        than an array may come as any iterable, read once."""
        effects = effects if isinstance(effects, np.ndarray) else list(effects)
        require_dim(effects, self.ambient_dim)
        if self.kind != FLOAT:
            try:
                flat, L = integer_row([x for e in effects for x in e])
            except ValueError:  # a float coefficient
                if self.kind == EXACT:
                    raise ModeError("float effects on an exact state space") from None
            else:
                n = self.ambient_dim
                values, Qs = self.least_values([flat[i:i + n] for i in range(0, len(flat), n)],
                                               field(EXACT))
                return [Fraction(v, L * Qs) for v in values]
        return self.least_values(effects, field(FLOAT))[0]

    def least_values(self, rows: Sequence, F) -> tuple:
        """(values, Q_s): the least value over the extreme states of each
        row, rows of F's numbers over one scale (an observable's
        `cleared_rows`, as lists or an array), times Q_s. In exact mode the
        rows are Python ints, read as they are with no clearing, and each
        value is the integer min_S (row . S) over the states' scale Q_s = D
        (`_integer_states`), of integer products alone; in float mode one
        array of the float products of every row with every state
        (`scalars.dots`) gives each row's first least value, the float of
        min over `vdot`, over Q_s = 1. A row of another dimension than the
        space raises ValueError."""
        require_dim(rows, self.ambient_dim)
        if F.mode == EXACT:
            states, D = self._integer_states
            return [min(sum(map(mul, row, s)) for s in states) for row in rows], D
        values = dots(np.asarray(rows, dtype=float).reshape(len(rows), self.ambient_dim),
                      self._float_states)
        return values[np.arange(len(rows)), values.argmin(axis=1)].tolist(), 1

    def generators(self, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """Every dual-cone extreme ray."""
        return dual_cone_rays(self, tol)

    def canonical_frame(self, effects: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> None:
        """None, the identity: a polytope's symmetries are not searched, so
        its effects stay in their own coordinates."""
        return None

    def prices(self, Z: Sequence, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
        """(values, rays): for each functional z, a row of Z, max over rays r
        of z.r / r(c), c the barycenter of the extreme states, and the first
        ray that attains it, from one array of the products of every z with
        every ray (`scalars.dots`: floats, or exact numbers with no float
        on either side)."""
        dtype = float if FLOAT in (self.kind, rows_kind(Z, self.ambient_dim)) else object
        rays = dual_cone_rays(self, tol)
        n = len(self.extreme_states)
        c = [field(self.mode).coerce(sum(x)) / n for x in zip(*self.extreme_states)]
        ratios = (dots(np.array(Z, dtype=dtype).reshape(len(Z), self.ambient_dim),
                       np.array(rays, dtype=dtype)) / np.array([vdot(r, c) for r in rays], dtype))
        best = ratios.argmax(axis=1)
        return ratios[np.arange(len(Z)), best].tolist(), [rays[k] for k in best]


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
    """Finite outcome-labelled family of effects summing to the unit. At
    least one outcome, and effects of one dimension, or ValueError. Its
    `labels` and `effects`, which nearly every use reads, are tuples made
    with it (a first `cached_property` read costs about a microsecond)."""

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
        dims = {len(eff.coeffs) for _, eff in fixed}
        if len(dims) > 1:
            raise ValueError(f"dimension mismatch between effects of dimensions {sorted(dims)}")
        object.__setattr__(self, "outcomes", tuple(fixed))
        object.__setattr__(self, "labels", tuple(label for label, _ in fixed))
        object.__setattr__(self, "effects", tuple(eff for _, eff in fixed))

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

    @cached_property
    def cleared_rows(self) -> tuple:
        """(N, D): the effects' coefficients as a tuple N of rows, one tuple
        per effect, over one scale D > 0, made on first read as `effect_sum`
        is: Python ints over their lcm (`scalars.integer_row`), or Python
        floats over D = 1 when a float occurs (`float` of a Python float is
        that float, so no number is made). The field is read first, so a
        bool raises ModeError (`integer_row` would take True for 1).
        Simulation decisions and replays and the noise content read the
        effects from here (`scalars.joined`), as Python numbers with no
        array arithmetic."""
        if self.mode == FLOAT:
            return tuple(tuple(map(float, eff.coeffs)) for eff in self.effects), 1
        flat, D = integer_row([x for eff in self.effects for x in eff.coeffs])
        n = self.dim
        return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), D

    @cached_property
    def cleared_sum(self) -> tuple:
        """(s, D): the sum of the effects as a list of Python numbers over
        the scale D of `cleared_rows`, each coordinate summed over the rows
        in order, made on first read: the effect-sum test of a simulation
        decision reads it (Python ints in exact mode, so no Fraction is
        added)."""
        N, D = self.cleared_rows
        return [sum(column) for column in zip(*N)], D

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def unit_coeffs(self) -> tuple:
        return tuple(self.space.unit) if self.space is not None else self.effect_sum

    def as_float(self) -> "Observable":
        """The observable over floats: itself when every coefficient is a
        float and its space (if any) is a float space already."""
        space = self.space.as_float() if self.space is not None else None
        if space is self.space and all(type(x) is float for e in self.effects for x in e.coeffs):
            return self
        return Observable(tuple((lab, eff.as_float()) for lab, eff in self.outcomes), space)

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
    """True iff 0 <= e <= u: both e and u - e have a least value of at least
    -eps on the states (`_in_unit_interval`)."""
    if effect.dim != space.ambient_dim:
        raise ValueError("effect dimension does not match state space")
    F = resolve((space.kind, kind_of(effect.coeffs)), tol)
    return _in_unit_interval(np.array([effect.coeffs], dtype=F.dtype), space, F.eps)


def is_valid_observable(obs: Observable, space: Optional[StateSpace] = None,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Labels distinct, effects valid (when a space is known), sum equals u."""
    return are_valid_observables([obs], space if space is not None else obs.space, tol)


def are_valid_observables(observables: Sequence[Observable], space,
                          tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """`is_valid_observable` for every observable on one space: their
    `valid_effect_rows` exist (None: the labels only)."""
    if space is None:
        return all(len(set(obs.labels)) == obs.n_outcomes for obs in observables)
    return valid_effect_rows(observables, space, tol) is not None


def valid_effect_rows(observables: Sequence[Observable], space,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[np.ndarray]:
    """The effects of observables on `space` as one array, a row of
    coefficients per effect in order, of the observables' own dtype (float
    when a float occurs in them, else object), when every observable is
    valid: distinct labels, every effect in [0, u] (`_in_unit_interval`, one
    `space.min_values` call for all) and each observable's effects summing
    to u within eps in each coordinate, eps that of the space and the
    observables together; else None. Each sum adds the rows in order, as
    `Observable.effect_sum` does, so that a sum within an ulp of eps gets
    that sum's verdict. An effect of another dimension than the space
    raises ValueError."""
    if any(len(set(obs.labels)) != obs.n_outcomes for obs in observables):
        return None
    if any(obs.dim != space.ambient_dim for obs in observables):
        raise ValueError("effect dimension does not match state space")
    kinds, dim = [obs.kind for obs in observables], space.ambient_dim
    eps = resolve((space.kind, *kinds), tol).eps
    A = np.array([e.coeffs for obs in observables for e in obs.effects],
                 dtype=float if FLOAT in kinds else object).reshape(-1, dim)
    ends = list(itertools.accumulate(obs.n_outcomes for obs in observables))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or a NaN fails
        sums = np.array([A[a:b].sum(axis=0) for a, b in zip([0, *ends], ends)]).reshape(-1, dim)
        valid = (_in_unit_interval(A, space, eps)
                 and (abs(sums - np.array(space.unit, dtype=A.dtype)) <= eps).all())
    return A if valid else None


def _in_unit_interval(A: np.ndarray, space, eps) -> bool:
    """0 <= e <= u for every row e of A: the least values of each e and each
    u - e, from one `space.min_values` call over [A; u - A], are at least
    -eps."""
    rests = np.array(space.unit, dtype=A.dtype) - A
    return all(v >= -eps for v in space.min_values(np.concatenate([A, rests])))


def _require_probabilities(weights: Sequence):
    """Raise ValueError unless the weights are a probability vector in their
    own field: their sum within its eps of 1 and each weight at least -eps
    (eps 0 in exact mode); a NaN fails."""
    eps = resolve([kind_of(weights)]).eps
    if not abs(sum(weights) - 1) <= eps:
        raise ValueError("weights must sum to 1")
    if not all(w >= -eps for w in weights):
        raise ValueError("weights must be nonnegative")


def trivial_observable(space: StateSpace, dist) -> Observable:
    """Observable with effects t(x) * u for the given (label, weight) pairs,
    a probability vector (`_require_probabilities`)."""
    dist = list(dist)
    _require_probabilities([w for _, w in dist])
    return Observable(tuple((lab, Effect(vscale(w, space.unit))) for lab, w in dist),
                      space)


def require_same_space(observables: Sequence[Observable]) -> Optional[StateSpace]:
    """The one state space that the observables name, None when none names
    one: ValueError unless those that name a space name one, and all of
    them live in one ambient dimension."""
    # Identity, then ==, and not a set: a frozen StateSpace hashes all its
    # coordinates on every call, and even == between the same object
    # compares field tuples. Each dimension is one len of a first effect.
    spaces = [obs.space for obs in observables if obs.space is not None]
    first = spaces[0] if spaces else None
    if any(space is not first and space != first for space in spaces[1:]):
        raise ValueError("mixed state spaces rejected")
    dim = len(observables[0].outcomes[0][1].coeffs)
    if any(len(obs.outcomes[0][1].coeffs) != dim for obs in observables[1:]):
        raise ValueError("observables live in different ambient dimensions")
    return first


def mix_observables(observables: Sequence[Observable], weights) -> Observable:
    """Convex mixture on the union outcome set, without tracking the choice.

    Observables are zero-extended to the union of their label sets (order of
    first appearance) before the weighted sum. They must share one space and
    one dimension (`require_same_space`), and the weights must be a
    probability vector (`_require_probabilities`). The mixture lives on the
    space that any of them names, whatever their order.
    """
    if not observables:
        raise ValueError("observables must be nonempty")
    space = require_same_space(observables)
    if len(observables) != len(weights):
        raise ValueError("one weight per observable required")
    _require_probabilities(weights)
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
    return Observable(tuple(out), space)


def dual_cone_rays(space: StateSpace, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
    """Canonical extreme rays of the positive dual cone {e : e(s) >= 0}.

    Cached per (space, mode, tol): a float twin (`space.as_float()`) compares
    and hashes equal to its exact space but needs rays of its own mode.
    `dual_cone_rays.cache_clear()` also empties every answer store: the
    registry `lp.answers` of refinement bases, simulation sets and
    compatibility layouts (`lp.Answers`).
    """
    return _dual_cone_rays(space, space.mode, tol)


@lru_cache(maxsize=None)
def _dual_cone_rays(space: StateSpace, mode: str, tol: Tolerance) -> tuple:
    return tuple(geometry.extreme_rays(space.extreme_states, mode=mode, tol=tol))


class _Bases(lp.Answers):
    """The lexicographically optimal bases of the refinements over one
    space's rays in one field F (`lp.Answers`, at most 64): a basis's
    payload is the LP's final basis (ray indices, row i's basic ray at i),
    its key the set of those rays, and its B^-1 the one the LP ended on
    (`geometry.ConicResult.inverse`),
    so no basis is inverted twice. The rays are held in F's numbers, so
    that a float effect on an integer space reads float ones."""

    def __init__(self, rays: tuple, F):
        super().__init__(F, cap=64)
        self.rays = tuple(tuple(map(F.coerce, r)) for r in rays)

    def solved(self, hits, vectors: Sequence) -> list:
        """For each hit of a coefficient vector v, the coefficients over the
        rays that its feasible stored basis gives v, if they pass
        `geometry.replay_inside`, one call for every hit; else None."""
        F = self.F
        replays = geometry.replay_inside([x for _, _, x in hits], [vectors[i] for i, _, _ in hits],
                                         [[self.rays[j] for j in basis] for _, basis, _ in hits],
                                         F.tol)
        found = []
        for (_, basis, x), holds in zip(hits, replays):
            placed = dict(zip(basis, x))
            found.append([placed.get(j, F.zero) for j in range(len(self.rays))] if holds else None)
        return found

    def kept_basis(self, res: geometry.ConicResult):
        """The LP's basis and B^-1 behind an answer with exactly dim positive
        coefficients, keyed by its support (the set of its basic rays, in any
        row order)."""
        d = len(self.rays[0])
        if sum(c > self.F.eps for c in res.coefficients) == d:
            return res.basis, frozenset(res.basis), res.inverse, [True] * d


def _cache_clear():
    _dual_cone_rays.cache_clear()
    lp.answers.cache_clear()


dual_cone_rays.cache_info = _dual_cone_rays.cache_info
dual_cone_rays.cache_clear = _cache_clear


def is_indecomposable(effect: Effect, space,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the effect spans an extreme ray of the space's effect cone.

    Zero effects are rejected.
    """
    if resolve((space.kind, kind_of(effect.coeffs)), tol).is_zero(effect.coeffs):
        raise ValueError("indecomposability is defined for nonzero effects only")
    return space.is_extremal([effect], tol)[0]


def decompose_into_indecomposables(effect: Effect, space,
                                   tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """Write a valid effect as a finite sum of indecomposable effects
    (`space.refine`). The zero effect decomposes into the empty list."""
    return space.refine([effect], tol)[0]


def is_informationally_complete(obs: Observable, space: Optional[StateSpace] = None,
                                tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff the effect coefficient vectors span the ambient space."""
    dim = (space or obs.space).ambient_dim if (space or obs.space) else obs.dim
    return geometry.rank([e.coeffs for e in obs.effects], tol=tol) == dim
