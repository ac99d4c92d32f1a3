"""Classical channels between outcome sets and the postprocessing preorder.

A postprocessing is a row-stochastic matrix from a source outcome set to a
target outcome set. Applying it to an observable mixes the source effects
into target effects. B is a postprocessing of A exactly when the one-element
set {A} simulates B, so the relation is `simulation.is_simulable` with one
simulator, and its certificate is a `SimulationCertificate`: weight (1,) and
the witnessing channel, or a Farkas refutation of the simulation program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from typing import Sequence

import numpy as np

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    Tolerance,
    field,
    kind_of,
    resolve,
    scaled,
)
from .spaces import Effect, Observable
from . import geometry

@dataclass(frozen=True)
class Postprocessing:
    """Row-stochastic transition matrix between outcome label sets."""

    source: tuple
    target: tuple
    matrix: tuple  # rows indexed by source, columns by target

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(str(x) for x in self.source))
        object.__setattr__(self, "target", tuple(str(y) for y in self.target))
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in self.matrix))
        if len(self.matrix) != len(self.source):
            raise ValueError("one matrix row per source label required")
        for r in self.matrix:
            if len(r) != len(self.target):
                raise ValueError("one matrix column per target label required")

    @cached_property
    def kind(self):
        """EXACT, FLOAT, or None when every entry is an integer."""
        return kind_of(x for row in self.matrix for x in row)

    @property
    def mode(self) -> str:
        return self.kind or EXACT

    def is_stochastic(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Every entry in [0, 1] and every row summing to 1: each row, cleared
        once to N over D (`scalars.scaled`), has |sum N - D| <= eps, then
        min N >= -eps and max N <= D + eps, so an empty row or a NaN fails
        the sum before min or max reads it."""
        F = field(self.mode, tol)
        return all(abs(sum(N) - D) <= F.eps and min(N) >= -F.eps and max(N) <= D + F.eps
                   for N, D in (scaled(F, row) for row in self.matrix))


def merge_channel(labels: Sequence[str], merged: Sequence[str], into: str,
                  mode: str = EXACT) -> Postprocessing:
    """Deterministic channel sending every label in `merged` to `into`; a
    label of `merged`, or `into`, not among `labels` raises ValueError."""
    F = field(mode)
    labels = tuple(labels)
    if not {into, *merged} <= set(labels):
        raise ValueError("merge_channel: merged labels and their target must be among the labels")
    target = tuple(lab for lab in labels if lab not in set(merged) or lab == into)
    rows = []
    for lab in labels:
        dest = into if lab in set(merged) else lab
        rows.append(tuple(F.one if t == dest else F.zero for t in target))
    return Postprocessing(labels, target, tuple(rows))


def apply(channel: Postprocessing, obs: Observable) -> Observable:
    """Postprocess an observable: (nu o A)_y = sum_x nu_xy A_x."""
    if channel.source != obs.labels:
        raise ValueError(
            f"channel source labels {channel.source} do not match observable "
            f"labels {obs.labels}")
    dim = obs.dim
    zero = resolve((obs.kind, channel.kind)).zero
    outcomes = []
    for yi, y in enumerate(channel.target):
        acc = [zero] * dim
        for xi, _ in enumerate(channel.source):
            w = channel.matrix[xi][yi]
            if w == 0:
                continue
            c = obs.effects[xi].coeffs
            for i in range(dim):
                acc[i] += w * c[i]
        outcomes.append((y, Effect(tuple(acc))))
    return Observable(tuple(outcomes), obs.space)


def is_postprocessing_of(target: Observable, source: Observable,
                         tol: Tolerance = DEFAULT_TOLERANCE):
    """Decide whether `target` can be obtained from `source` by a channel,
    i.e. whether `source` alone simulates it: `is_simulable(target, [source])`."""
    from .simulation import is_simulable

    return is_simulable(target, [source], tol)


def replay_relation(cert, target: Observable, source: Observable,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Re-check a relation certificate: `replay_simulation(cert, target, [source])`.
    Kept by name because perfbench's relation decisions and its tracer call it."""
    from .simulation import replay_simulation

    return replay_simulation(cert, target, [source], tol)


def are_equivalent(a: Observable, b: Observable,
                   tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Postprocessing equivalence: channels exist in both directions."""
    return (is_postprocessing_of(b, a, tol).simulable
            and is_postprocessing_of(a, b, tol).simulable)


def proportional_groups(obs: Observable, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """The nonzero effects grouped by ray, as (smallest label, summed
    coefficients, outcome indices) per group, sorted by label: a ray's key
    is the `F.key` of its canonical form (`geometry.canonical_ray`), as
    `simulation.decompose_to_irreducibles` groups its parts, and each group
    sums its effects' coefficient tuples in outcome order. The one grouping
    behind `minimally_sufficient(_with_channels)` and
    `simulation.is_simulation_irreducible`; an all-zero observable raises
    the ValueError of an observable with no outcome."""
    F = field(obs.mode, tol)
    groups = {}
    for i, (label, eff) in enumerate(obs.outcomes):
        if not F.is_zero(c := eff.coeffs):
            key = F.key(geometry.canonical_ray(c, F.mode, tol))
            found = groups.get(key)
            groups[key] = ((label, c, [i]) if found is None else
                           (min(found[0], label), tuple(map(add, found[1], c)), found[2] + [i]))
    if not groups:
        raise ValueError("an observable needs at least one outcome")
    return sorted(groups.values(), key=itemgetter(0))


def minimally_sufficient(obs: Observable, tol: Tolerance = DEFAULT_TOLERANCE) -> Observable:
    """The merged observable of `minimally_sufficient_with_channels`,
    without its channels: one outcome per group of `proportional_groups`."""
    return Observable(tuple(g[:2] for g in proportional_groups(obs, tol)), obs.space)


def minimally_sufficient_with_channels(obs: Observable,
                                       tol: Tolerance = DEFAULT_TOLERANCE):
    """Merge proportional effects into a pairwise linearly independent form.

    Returns (merged, forward, backward) where forward maps the original
    outcomes onto the merged ones (merged = forward o original) and backward
    splits them again proportionally (original = backward o merged). Zero
    effects are dropped; each group of `proportional_groups` merges into its
    lexicographically smallest label; the result is sorted by label. The
    backward shares are divided in the observable's field, so that an
    observable of integers gets exact channels.
    """
    F = field(obs.mode, tol)
    groups = proportional_groups(obs, tol)
    merged = Observable(tuple(g[:2] for g in groups), obs.space)
    target, n = merged.labels, obs.n_outcomes
    to = {i: lab for lab, _, grp in groups for i in grp}  # a zero effect goes to target[0]
    forward = Postprocessing(obs.labels, target, tuple(
        tuple(F.one if t == to.get(i, target[0]) else F.zero for t in target) for i in range(n)))
    back_rows = []
    for _, total, grp in groups:
        j = max(range(len(total)), key=lambda k: abs(total[k]))
        back_rows.append(tuple(F.coerce(obs.effects[i].coeffs[j]) / total[j] if i in grp
                               else F.zero for i in range(n)))
    return merged, forward, Postprocessing(target, obs.labels, tuple(back_rows))


def is_postprocessing_clean(obs: Observable, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff every nonzero effect is indecomposable: one `is_extremal`
    call for them all, on one array of their coefficients in the
    observable's field, so that a float one is scanned for its field once.
    `simulation.is_simulation_irreducible` runs the same test on the rows
    of `proportional_groups`, with no merged observable built."""
    if obs.space is None:
        raise ValueError("postprocessing cleanness needs the state space")
    F = field(obs.mode, tol)
    rows = np.array([e.coeffs for e in obs.effects if not F.is_zero(e.coeffs)], dtype=F.dtype)
    return all(obs.space.is_extremal(rows.reshape(-1, obs.dim), tol))


def binarization(obs: Observable, label: str) -> Observable:
    """Dichotomic coarse-graining (A_label, u - A_label) of an observable."""
    eff = obs.effect(label)
    unit = obs.unit_coeffs()
    comp = Effect(tuple(u - c for u, c in zip(unit, eff.coeffs)))
    return Observable((("+", eff), ("-", comp)), obs.space)
