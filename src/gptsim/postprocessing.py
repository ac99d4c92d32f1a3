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
from typing import Sequence

from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    Tolerance,
    field,
    kind_of,
    resolve,
    to_float_vector,
)
from .spaces import Effect, Observable, is_indecomposable
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

    def as_float(self) -> "Postprocessing":
        return Postprocessing(self.source, self.target,
                              tuple(to_float_vector(r) for r in self.matrix))

    def is_stochastic(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        eps = field(self.mode, tol).eps  # each test is written so that a NaN fails it
        for row in self.matrix:
            if not all(-eps <= v <= 1 + eps for v in row):
                return False
            if not abs(sum(row) - 1) <= eps:
                return False
        return True


def merge_channel(labels: Sequence[str], merged: Sequence[str], into: str,
                  mode: str = EXACT) -> Postprocessing:
    """Deterministic channel sending every label in `merged` to `into`."""
    F = field(mode)
    labels = tuple(labels)
    target = tuple(lab for lab in labels if lab not in set(merged) or lab == into)
    rows = []
    for lab in labels:
        dest = into if lab in set(merged) else lab
        rows.append(tuple(F.one if t == dest else F.zero for t in target))
    return Postprocessing(labels, target, tuple(rows))


def compose(later: Postprocessing, earlier: Postprocessing) -> Postprocessing:
    """Channel equal to applying `earlier` first, then `later`."""
    if earlier.target != later.source:
        raise ValueError("channel composition: outcome sets do not match")
    rows = []
    for x in range(len(earlier.source)):
        rows.append(tuple(
            sum(earlier.matrix[x][k] * later.matrix[k][z]
                for k in range(len(earlier.target)))
            for z in range(len(later.target))))
    return Postprocessing(earlier.source, later.target, tuple(rows))


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


def _proportionality_groups(obs: Observable, tol: Tolerance):
    """Group outcome indices of nonzero effects by their ray direction."""
    F = field(obs.mode, tol)
    zero_idx, groups = [], []
    for i, eff in enumerate(obs.effects):
        if F.is_zero(eff.coeffs):
            zero_idx.append(i)
            continue
        placed = False
        for grp in groups:
            rep = obs.effects[grp[0]].coeffs
            if geometry.rank([rep, eff.coeffs], tol=tol, mode=F.mode) == 1:
                grp.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return zero_idx, groups


def minimally_sufficient(obs: Observable, tol: Tolerance = DEFAULT_TOLERANCE) -> Observable:
    return minimally_sufficient_with_channels(obs, tol)[0]


def minimally_sufficient_with_channels(obs: Observable,
                                       tol: Tolerance = DEFAULT_TOLERANCE):
    """Merge proportional effects into a pairwise linearly independent form.

    Returns (merged, forward, backward) where forward maps the original
    outcomes onto the merged ones (merged = forward o original) and backward
    splits them again proportionally (original = backward o merged). Zero
    effects are dropped; each group merges into its lexicographically
    smallest label; the result is sorted by label.
    """
    F = field(obs.mode, tol)
    zero_idx, groups = _proportionality_groups(obs, tol)
    reps = []
    for grp in groups:
        label = min(obs.labels[i] for i in grp)
        coeffs = obs.effects[grp[0]].coeffs
        for i in grp[1:]:
            coeffs = tuple(a + b for a, b in zip(coeffs, obs.effects[i].coeffs))
        reps.append((label, Effect(coeffs), grp))
    reps.sort(key=lambda t: t[0])
    merged = Observable(tuple((lab, eff) for lab, eff, _ in reps), obs.space)

    target = merged.labels
    fwd_rows = []
    for i, lab in enumerate(obs.labels):
        dest = None
        for rlab, _, grp in reps:
            if i in grp:
                dest = rlab
                break
        if dest is None:
            dest = reps[0][0] if reps else lab  # zero effect, routed anywhere
        fwd_rows.append(tuple(F.one if t == dest else F.zero for t in target))
    forward = Postprocessing(obs.labels, target, tuple(fwd_rows))

    back_rows = []
    for rlab, eff, grp in reps:
        total = eff.coeffs
        j = max(range(len(total)), key=lambda k: abs(total[k]))
        row = []
        for i, lab in enumerate(obs.labels):
            if i in grp:
                row.append(obs.effects[i].coeffs[j] / total[j])
            else:
                row.append(F.zero)
        back_rows.append(tuple(row))
    backward = Postprocessing(target, obs.labels, tuple(back_rows))
    return merged, forward, backward


def is_postprocessing_clean(obs: Observable, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff every nonzero effect is indecomposable."""
    if obs.space is None:
        raise ValueError("postprocessing cleanness needs the state space")
    F = field(obs.mode, tol)
    for eff in obs.effects:
        if F.is_zero(eff.coeffs):
            continue
        if not is_indecomposable(eff, obs.space, tol):
            return False
    return True


def binarization(obs: Observable, label: str) -> Observable:
    """Dichotomic coarse-graining (A_label, u - A_label) of an observable."""
    eff = obs.effect(label)
    unit = obs.unit_coeffs()
    comp = Effect(tuple(u - c for u, c in zip(unit, eff.coeffs)))
    return Observable((("+", eff), ("-", comp)), obs.space)
