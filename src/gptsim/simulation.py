"""Simulability of observables by mixing-and-postprocessing schemes.

An observable A is simulable from a set of simulators when it can be written
as A_y = sum_i p_i (nu_i o B_i)_y for a probability distribution p and
channels nu_i. Substituting M_i = p_i * nu_i linearizes the bilinear form
exactly, so membership is one LP feasibility problem: nonnegative variables
M_i[x,y] with constant row sums c_i inside each simulator, sum_i c_i = 1,
and effect-matching equalities. A solution x = (M, c) is the certificate
as solved; infeasibility yields a Farkas certificate. Both replay against
the definition, from the certificate and the observables alone
(`replay_simulation`), so a fault in the program builder cannot pass its own
replay. With one simulator B the simulation set is {nu o B}, so the
postprocessing relation is this program and this certificate too, with
weights (1,) and one channel (`postprocessing.is_postprocessing_of`).

The definition needs no division, so neither does the replay of x. With
p_i = c_i and nu_i = M_i / c_i where c_i > 0 (a block of weight zero is
zero, and any channel serves it), x is a scheme exactly when M >= 0, each
row of block i sums to c_i, sum_i c_i = 1 and sum_g M[g, y] B_g = A_y for
every outcome y. The replay tests just that on x: on integers over one
denominator in exact mode, making no Fraction, and at eps on the solved
numbers in float mode, where M_i / c_i would scale a residual by 1 / c_i.
Weights and channels are views of x for output; read in, they form x by
M_i = w_i nu_i (`SimulationCertificate.from_scheme`).

The module also hosts the derived notions: simulation irreducibility,
decomposition into irreducibles (vertex peeling of the polytope of weights
on the target's refined rays: at most s - 2 leaves for s rays), noise
content, the minimal simulation number over an explicit simulator pool, the
necessary dichotomic convex-hull condition, closure-law diagnostics, and
compatibility: one joint-observable program on the product outcome set
for every effect cone, grown by column generation from the cone's
generators and refuted through its `prices` (one round for a polytope,
whose generators are all its dual-cone rays).

Both programs leave out rows that equal effect sums imply: a simulation
program the target's last-outcome rows, a compatibility program the
last-outcome block of every target after the first. A float answer is
tested on every row, those left out included, at eps, and raises
CertificateError if it fails them; a refutation is padded with zeros in the
rows left out, so it keeps one entry per row of the full layout.

One simulation set is tested against many targets (every target against
(E, F) on the square bit, the subsets of one pool in `smin`, one source in
the postprocessing relation) with programs that differ only in b, as are
compatibility programs of one layout. Both first read the answers of
earlier solves through the one store loop (`lp.Answers.decide`), and keep
their own answers there (`keep_refutation`, `keep_basis`); a float program
that the store does not decide is solved from the stored basis nearest to
feasibility (a later round of compatibility's column generation from the
basis of the round before). Each store here keeps only its kind's part:
its b, the translation of a stored payload into a certificate with the
replay that certificate gets from the LP too (`_SetAnswers`,
`_JointAnswers`), and the translation of a solve's answer into what it
stores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .lp import FEASIBLE, Answers, CertificateError, LinearProgram, answers, lp_solve, make_program
from .postprocessing import (
    Postprocessing,
    apply,
    merge_channel,
    proportional_groups,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    Tolerance,
    cleared,
    field,
    integer_row,
    joined,
    kind_of,
    resolve,
    scaled,
    to_float_vector,
    vdot,
    vscale,
)
from .spaces import (
    Effect,
    Observable,
    mix_observables,
    require_same_space,
    valid_effect_rows,
)

SIMULABLE = "simulable"
NOT_SIMULABLE = "not_simulable"


@dataclass(frozen=True)
class SimulationCertificate:
    """Either a scheme x = (M, c) of `simulation_program`, with a (source,
    target) label pair per simulator in `labels`, or a Farkas refutation."""

    verdict: str
    scheme: Optional[tuple] = None
    labels: Optional[tuple] = None
    farkas: Optional[tuple] = None

    @classmethod
    def from_scheme(cls, weights: Sequence, channels: Sequence) -> "SimulationCertificate":
        """The certificate of weights w_i and channels nu_i: M_i = w_i nu_i."""
        blocks = (w * v for w, chan in zip(weights, channels) for row in chan.matrix for v in row)
        return cls(SIMULABLE, scheme=(*blocks, *weights),
                   labels=tuple((chan.source, chan.target) for chan in channels))

    @property
    def simulable(self) -> bool:
        return self.verdict == SIMULABLE

    @property
    def kind(self):
        """EXACT, FLOAT, or None when every number is an integer: scanned
        once per certificate, as every replay resolves its field over it.
        It is kept as a plain attribute, since a `cached_property` would
        give every certificate a `__dict__` of its own."""
        kind = getattr(self, "_kind", False)
        if kind is False:
            kind = kind_of(self.scheme if self.simulable else self.farkas)
            object.__setattr__(self, "_kind", kind)
        return kind

    def as_float(self) -> "SimulationCertificate":
        return replace(self, scheme=self.scheme and to_float_vector(self.scheme),
                       farkas=self.farkas and to_float_vector(self.farkas))

    @property
    def weights(self) -> Optional[tuple]:
        """The weights c_i: the scheme's last entries, one per label pair."""
        return self.scheme[len(self.scheme) - len(self.labels):] if self.simulable else None

    @property
    def channels(self) -> Optional[tuple]:
        """The channels M_i / c_i, for output: uniform for a weight within
        eps (the default tolerance) of zero."""
        if not self.simulable:
            return None
        F, entries = field(self.kind or EXACT), iter(self.scheme)  # block rows in turn
        return tuple(Postprocessing(source, target, [
            [F.one / len(target) if abs(c) <= F.eps else F.coerce(m) / c
             for m in itertools.islice(entries, len(target))] for _ in source])
            for (source, target), c in zip(self.labels, self.weights))


def _common_field(target: Observable, simulators: Sequence[Observable],
                  tol: Tolerance = DEFAULT_TOLERANCE):
    return resolve((target.kind, *(b.kind for b in simulators)), tol)


def _check_same_space(target: Observable, simulators: Sequence[Observable]):
    if not simulators:
        raise ValueError("simulators must be nonempty")
    require_same_space([target, *simulators])


def _require_sums(target: Observable, simulators: Sequence[Observable], F):
    """ValueError unless every simulator's effects sum to the target's effect
    sum: exactly in exact mode, within eps in each coordinate in float mode."""
    s = target.effect_sum
    if F.mode != FLOAT:
        agree = all(sim.effect_sum == s for sim in simulators)
    else:
        agree = all(len(sim.effect_sum) == len(s)
                    and all(abs(a - b) <= F.eps for a, b in zip(sim.effect_sum, s))
                    for sim in simulators)
    if not agree:
        raise ValueError("the target's effects and each simulator's must sum to one vector")


def simulation_program(target: Observable, simulators: Sequence[Observable],
                       tol: Tolerance = DEFAULT_TOLERANCE) -> LinearProgram:
    """The feasibility LP whose solutions are scaled simulation schemes.

    Variables are the blocks M_i[x,y] >= 0 followed by the weights c_i; the
    constraints are constant row sums within each simulator, total weight
    one, and effect matching for every target outcome but the last. Row
    g < X (X the simulators' outcomes in turn) holds ones across block row
    g and -1 in its simulator's weight column; row X is the weight row W;
    row X + 1 + y * dim + d, for y < ny - 1, matches coefficient d of
    target effect y with the simulators' coefficients d under column y of
    every block.

    The last outcome's rows are implied. When every simulator's effects sum
    to the target's effect sum s, row (last, d) is s(d) W + sum_g B_g(d)
    RS_g - sum_{y < last} row (y, d), with RS_g row g and B_g the effect of
    row g, and its right-hand side A_last(d) is s(d) - sum_{y < last} A_y(d).
    So the sums must agree (exactly in exact mode, within eps in each
    coordinate in float mode), or ValueError is raised. Without those rows
    column g * ny + ny - 1, M[g, last], is the unit column of row g, and the
    program starts each row g on it (`LinearProgram.start`).

    Both fields place these blocks into one zeroed array of the field's
    dtype, the program's stored form (`LinearProgram.data`), so the program
    scans no entry: float mode the coefficients, beside the right-hand side
    as a float array; exact mode the integers that `scalars.integer_row`
    clears each row to, each row's right-hand side numerator in a last
    column, beside the row denominators. The row-sum and weight rows are
    their own integers over 1, and effect row (y, d) is coordinate d of
    every simulator outcome with A_y(d), cleared together.
    """
    F = _common_field(target, simulators, tol)
    _require_sums(target, simulators, F)
    ny, dim, k = target.n_outcomes, target.dim, len(simulators)
    sizes = [sim.n_outcomes for sim in simulators]
    nx = sum(sizes)
    c0 = nx * ny  # block M_i starts at column ny * (outcomes of the simulators before i)
    # coordinate d of every simulator outcome g, one tuple per d
    columns = list(zip(*(eff.coeffs for sim in simulators for eff in sim.effects)))
    kept = [eff.coeffs for eff in target.effects[:-1]]  # the effects of the rows kept
    # Placed, not multiplied in: 0.0 * x is -0.0 for negative x.
    rows = np.zeros((nx + 1 + (ny - 1) * dim, c0 + k + (F.mode == EXACT)), dtype=F.dtype)
    g = np.arange(nx)
    rows[:nx, :c0].reshape(nx, nx, ny)[g, g] = 1
    rows[g, c0 + np.repeat(np.arange(k), sizes)] = -1
    rows[nx, c0:] = 1  # in exact mode the weight row's right-hand side too
    if F.mode == EXACT:  # effect row (y, d): column d with A_y(d), over their lcm
        cleared = [integer_row((*col, a)) for effect in kept for col, a in zip(columns, effect)]
        rows[nx + 1:, -1] = [r[-1] for r, _ in cleared]
        columns, last = [r[:-1] for r, _ in cleared], [1] * (nx + 1) + [d for _, d in cleared]
    else:  # the same columns for every y
        last = [0.0] * nx + [1.0] + [x for effect in kept for x in effect]
    y = range(ny - 1)
    rows[nx + 1:, :c0].reshape(ny - 1, dim, nx, ny)[y, :, :, y] = \
        np.array(columns, dtype=F.dtype).reshape(-1, dim, nx)
    return LinearProgram(c0 + k, (rows, np.array(last, dtype=F.dtype)),
                         start=tuple((g, g * ny + ny - 1) for g in range(nx)))


def _simulable(target: Observable, simulators: Sequence[Observable],
               x: Sequence) -> SimulationCertificate:
    """The simulable certificate of a solution x of `simulation_program`."""
    return SimulationCertificate(SIMULABLE, scheme=tuple(x),
                                 labels=tuple((sim.labels, target.labels) for sim in simulators))


def _farkas_bounds(F, y, B, D, simulators: Sequence[Observable]) -> bool:
    """The target-free half of a refutation: alpha_g + phi_y . B_g <= eps
    for every column M[g, y] and beta <= sum_{g in i} alpha_g for every
    weight column c_i, for a Farkas vector y = (alpha, beta, phi) of the
    full layout, over a scale of its own, and the simulators' effects B (row
    g's effect, a row each) over D; an inf or a NaN fails."""
    starts = list(itertools.accumulate([b.n_outcomes for b in simulators[:-1]], initial=0))
    alpha, beta, phi = y[:len(B)], y[len(B)], y[len(B) + 1:].reshape(-1, B.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        columns = alpha[:, None] * D + B @ phi.T  # times D and y's scale
        weights = beta - np.add.reduceat(alpha, starts)  # times y's scale
        return bool((columns <= F.eps).all() and (weights <= F.eps).all())


def _effects(F, target: Observable, simulators: Sequence[Observable]) -> tuple:
    """(B, A, D): the simulators' effects, row g the effect of simulator
    outcome g, and the target's, a row per outcome, over one scale D: their
    `cleared_rows` brought together (`joined`), so no observable is cleared
    again. A certificate's numbers are cleared over a scale of their own, and
    each test below weighs its terms so that both sides carry both scales."""
    A, *Bs, D = joined(F, target.cleared_rows, *(sim.cleared_rows for sim in simulators))
    return (Bs[0] if len(Bs) == 1 else np.concatenate(Bs)), A, D


def _scheme_holds(target: Observable, simulators: Sequence[Observable], x: Sequence,
                  F) -> bool:
    """x has one entry per column of `simulation_program`, x >= -eps, sum_y
    M[g, y] = c_i for each outcome g of simulator i, sum_i c_i = 1, and
    sum_g M[g, y] B_g = A_y for every outcome y, the last included: tested
    on x cleared over E and the effects over D (`_effects`), exactly in
    exact mode and within eps in float mode, where E = D = 1; an inf or a
    NaN fails."""
    (X, E), (B, A, _) = cleared(F, x), _effects(F, target, simulators)
    nx, ny, sizes = len(B), len(A), [sim.n_outcomes for sim in simulators]
    if len(X) != nx * ny + len(sizes):
        return False
    M, c = X[:nx * ny].reshape(nx, ny), X[nx * ny:]
    with np.errstate(over="ignore", invalid="ignore"):
        gap = M.T @ B - A * E  # times D E
        return bool((X >= -F.eps).all()
                    and (abs(M.sum(axis=1) - np.repeat(c, sizes)) <= F.eps).all()
                    and abs(c.sum() - E) <= F.eps and (abs(gap) <= F.eps).all())


class _SetAnswers(Answers):
    """The answers of the solves over one simulation set (`lp.Answers`), at
    most 8 of each kind. A target reaches the weight row and the effect rows
    of its first ny - 1 outcomes, b = (1, A_0, ..., A_{ny-2}), and there a
    refutation keeps its entries (beta, phi), its payload the full-layout
    Farkas vector, and a basis its B^-1 columns, its payload and its key
    each row's basic column (n + i for a dropped row)."""

    def __init__(self, simulators: Sequence[Observable], ny: int, F):
        super().__init__(F, cap=8)
        self.nx, self.dim = sum(sim.n_outcomes for sim in simulators), simulators[0].dim
        self.n = self.nx * ny + len(simulators)  # the program's columns
        self.m = self.nx + 1 + (ny - 1) * self.dim  # the program's rows
        self.reached = slice(self.nx, None)

    @staticmethod
    def refuted(farkas: tuple, target: Observable, simulators: Sequence[Observable]):
        """A stored refutation as it is: its target-free half passed when it
        was kept, and the scan tested beta + phi . b > 0."""
        return SimulationCertificate(NOT_SIMULABLE, farkas=farkas)

    def solved(self, hits, target: Observable, simulators: Sequence[Observable]) -> list:
        """The scheme of a feasible stored basis; a float one that fails a
        row of the full layout (`_scheme_holds`) is None."""
        ((_, basis, values),) = hits
        x = [self.F.zero] * self.n
        for col, v in zip(basis, values):
            if col < self.n:
                x[col] = v
        holds = self.F.mode != FLOAT or _scheme_holds(target, simulators, x, self.F)
        return [_simulable(target, simulators, x) if holds else None]

    def kept_refutation(self, farkas: tuple, target: Observable, simulators: Sequence[Observable]):
        """A full-layout Farkas vector that passes the target-free half of
        `replay_simulation` (`_farkas_bounds`)."""
        if len(farkas) == self.m + self.dim:
            (y, _), (B, _, D) = cleared(self.F, farkas), _effects(self.F, target, simulators)
            if _farkas_bounds(self.F, y, B, D, simulators):
                return farkas, y[self.nx:self.m], None

    def kept_basis(self, out):
        """The final basis of a solve of this set's program, one column per row."""
        if out.basis is not None and len(out.basis) == self.m:
            return out.basis, out.basis, out.inverse, [col < self.n for col in out.basis]


def is_simulable(target: Observable, simulators: Sequence[Observable],
                 tol: Tolerance = DEFAULT_TOLERANCE) -> SimulationCertificate:
    """Decide membership of `target` in the simulation set of `simulators`.

    A target whose effects do not sum to the simulators' common effect sum
    raises ValueError, before any answer is read from the store or solved
    (`simulation_program`). A float solution is tested on the rows the
    program drops as well, and one that fails them raises CertificateError.
    A Farkas vector is padded with zeros in the dropped rows, so it has one
    entry per row of the full program.

    The program is solved only when the set's stored answers
    (`_SetAnswers`, read by `lp.Answers.decide` on the target's b) do not
    decide the target. A float scheme read from them is tested on every row
    of the full layout at eps, or it is not returned; a refutation's
    target-free inequalities are tested when it is stored. A float solve
    starts from the start the store names (`lp_solve`'s `start`, the dual
    phase); its answer is tested as a cold solve's. Exact solves start
    cold."""
    simulators = list(simulators)
    _check_same_space(target, simulators)
    F = _common_field(target, simulators, tol)
    # Keyed by what the program's A depends on, and by the builder and the
    # solver that answered for it, as this module names them now: a replaced
    # or wrapped `simulation_program` or `lp_solve` reads a store of its own.
    key = ("simulation", simulation_program, lp_solve,
           tuple(sim.coefficient_key for sim in simulators), target.n_outcomes, F.mode, F.eps)
    store = answers(key, lambda: _SetAnswers(simulators, target.n_outcomes, F))
    _require_sums(target, simulators, F)
    N, L = joined(F, target.cleared_rows)
    b = np.concatenate((np.array([L], dtype=F.dtype), N[:-1].ravel()))
    ((cert, start),) = store.decide([b], [L], target, simulators)
    if cert is not None:
        return cert
    out = lp_solve(simulation_program(target, simulators, tol), tol=tol, start=start)
    if out.verdict != FEASIBLE:
        farkas = out.farkas + (F.zero,) * target.dim
        store.keep_refutation(farkas, target, simulators)
        return SimulationCertificate(NOT_SIMULABLE, farkas=farkas)
    if F.mode == FLOAT and not _scheme_holds(target, simulators, out.solution, F):
        raise CertificateError("float solution fails the target's last-outcome rows")
    store.keep_basis(out)
    return _simulable(target, simulators, out.solution)


def replay_simulation(cert: SimulationCertificate, target: Observable,
                      simulators: Sequence[Observable],
                      tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Re-check a simulation certificate against the definition of
    simulation, from the certificate and the observables alone: it builds no
    program. Observables of different ambient dimensions or state spaces
    raise ValueError, as in `is_simulable`; the field is resolved over the
    certificate's numbers too, so exact and float ones mixed raise
    ModeError. A certificate whose verdict is neither simulable nor not
    simulable, or that lacks its verdict's scheme or Farkas vector, fails.
    Exact values are cleared to integers (the certificate's numbers over
    their own denominator, the observables read from their `cleared_rows`)
    and compared exactly, float values within eps, and a NaN fails every
    test.

    A scheme x = (M, c) replays when it carries the simulators' and the
    target's label pairs and satisfies the definition as the module
    docstring states it, with no division (`_scheme_holds`): x >= -eps,
    every row of block i sums to c_i, sum_i c_i = 1, and sum_g M[g, y] B_g
    = A_y for every outcome y.

    A refutation is a Farkas vector of the full program, the target's last
    outcome's rows included: alpha_g for the row sum of each simulator
    outcome g, beta for the total weight, then phi_y (dim entries) for the
    effect of each target outcome y. It replays when alpha_g + phi_y . B_g
    <= 0 for every column M[g, y], beta <= sum_{g in i} alpha_g for every
    weight column c_i, and beta + sum_y phi_y . A_y > 0. A vector padded with
    zeros in the last block, as `is_simulable` writes it, and one solved
    from the full program, as files written before the program dropped
    those rows hold, replay alike. A target whose effects do not sum to the
    simulators' effect sum is simulable by no scheme, so no simulable
    certificate replays for it.
    """
    simulators = list(simulators)
    _check_same_space(target, simulators)
    if {SIMULABLE: cert.scheme, NOT_SIMULABLE: cert.farkas}.get(cert.verdict) is None:
        return False  # another verdict, or no payload for this one
    F = resolve((target.kind, *(b.kind for b in simulators), cert.kind), tol)
    if not cert.simulable:
        (y, _), (B, A, D) = cleared(F, cert.farkas), _effects(F, target, simulators)
        if len(y) != len(B) + 1 + A.size:
            return False
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN value fails
            value = y[len(B)] * D + y[len(B) + 1:] @ A.ravel()  # times D and y's scale
        return bool(value > F.eps) and _farkas_bounds(F, y, B, D, simulators)
    return (cert.labels == tuple((sim.labels, target.labels) for sim in simulators)
            and _scheme_holds(target, simulators, cert.scheme, F))


def is_simulation_irreducible(obs: Observable,
                              tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """The paper's criterion: the minimally sufficient form has linearly
    independent indecomposable effects. The form is read as the rows of
    `proportional_groups`, with no merged `Observable` built, in the field
    of those rows: the observable's own, unless a dropped zero effect held
    its only float or Fraction, when the rows are scanned. More rows than
    the space has dimensions are never independent, so such a form is
    decided without the cone call once the space and the rows agree on
    dimension and field, as that call would test. Otherwise one
    `is_extremal` call on one array of the nonzero rows is the cleanness
    test of `postprocessing.is_postprocessing_clean` (a one-effect group's
    row is a nonzero effect; opposite effects on one ray sum to a zero
    row), and `geometry.rank` reads every row, so a zero row fails it."""
    space = obs.space
    if space is None:
        raise ValueError("simulation irreducibility needs the state space")
    groups = proportional_groups(obs, tol)
    rows = [coeffs for _, coeffs, _ in groups]
    kind = obs.kind if sum(len(g[2]) for g in groups) == obs.n_outcomes else kind_of(sum(rows, ()))
    F = field(kind or EXACT, tol)
    if len(rows) > space.ambient_dim == obs.dim:
        resolve((space.kind, kind), tol)
        return False
    nonzero = [row for row, g in zip(rows, groups) if len(g[2]) == 1 or not F.is_zero(row)]
    return (all(space.is_extremal(np.array(nonzero, dtype=F.dtype).reshape(-1, obs.dim), tol))
            and geometry.rank(rows, tol=tol, mode=F.mode) == len(rows))


@dataclass(frozen=True)
class IrreducibleDecomposition:
    observables: tuple
    certificate: SimulationCertificate

    @property
    def splits(self) -> int:
        """Leaves - 1, the mixing steps that part the leaves."""
        return len(self.observables) - 1


def _drop_along(x: dict, d: dict, F) -> tuple:
    """(x - t d, t) for the largest t >= 0 that keeps x nonnegative, with x
    and d maps from ray index to value and x the positive entries only. An
    entry that falls to zero (in float mode, to eps times its old value)
    leaves the map, so at least the ray that attains t drops."""
    t = min(x[r] / b for r, b in d.items() if b > 0)
    moved = {r: a - t * d.get(r, 0) for r, a in x.items()}
    return {r: m for r, m in moved.items() if m > F.eps * x[r]}, t


def decompose_to_irreducibles(target: Observable,
                              tol: Tolerance = DEFAULT_TOLERANCE) -> IrreducibleDecomposition:
    """Simulate `target` from at most max(1, s - 2) simulation-irreducible
    observables, s the number of distinct rays its effects refine onto.

    Each effect A_y is refined into indecomposable parts (one call of the
    space's `refine` for them all), grouped by ray (`F.key` of
    `geometry.canonical_ray`). With E_r the sum of the parts on ray r and
    nu(y|r) the share of E_r from outcome y, A_y = sum_r mu_r nu(y|r) E_r
    at mu = 1, a point of P = {mu >= 0 : sum_r mu_r E_r = u}. A point of P
    is a vertex exactly when the E_r of its support are linearly
    independent, and then its observable (mu_r E_r) is simulation
    irreducible by the paper's criterion. The E_r are extreme rays of the
    effect cone, pairwise not proportional, so no three lie in a plane and
    dim P <= s - 3 for s >= 3. Peeling: null vectors of the
    residual's support (`geometry.null_space_vector`) walk inside its face
    to a vertex v, each step dropping a ray; the largest alpha with
    mu - alpha v >= 0 drops another. With rho the weight left (mu in rho P),
    v / rho is a leaf of weight alpha rho, and its rows of M are alpha rho
    times nu restricted to its support. Each peel leaves a proper face of
    the last, so at most dim P + 1 leaves come out. Leaf outcomes are
    labelled `<label>.<j>` after the first part on their ray. A certificate
    that fails `replay_simulation` raises CertificateError.
    """
    if target.space is None:
        raise ValueError("decomposition needs the state space")
    F = field(target.mode, tol)
    groups = {}  # ray key -> (label of its first part, [(outcome index, part)])
    refined = target.space.refine(target.effects, tol)
    for y, (label, parts) in enumerate(zip(target.labels, refined)):
        for j, part in enumerate(parts):
            key = F.key(geometry.canonical_ray(part.coeffs, F.mode, tol))
            groups.setdefault(key, (f"{label}.{j}", []))[1].append((y, part.coeffs))
    if not groups:
        raise ValueError("cannot decompose an all-zero observable")
    labels, effects, shares = [], [], []
    for label, parts in groups.values():
        total = tuple(map(sum, zip(*(c for _, c in parts))))
        d = max(range(len(total)), key=lambda i: abs(total[i]))
        nu = [F.zero] * target.n_outcomes
        for y, c in parts:
            nu[y] += F.coerce(c[d]) / total[d]
        labels.append(label)
        effects.append(total)
        shares.append(tuple(nu))
    mu, rho = dict.fromkeys(range(len(effects)), F.one), F.one
    weights, leaves, blocks = [], [], []
    while mu:
        v = mu
        while (beta := geometry.null_space_vector(
                [[effects[r][i] for r in v] for i in range(target.dim)], tol, F.mode)) is not None:
            v = _drop_along(v, dict(zip(v, beta)), F)[0]
        mu, alpha = _drop_along(mu, v, F)
        leaves.append(Observable(tuple((labels[r], Effect(vscale(x / rho, effects[r])))
                                       for r, x in v.items()), target.space))
        weights.append(alpha * rho)
        blocks += [weights[-1] * s for r in v for s in shares[r]]
        rho -= weights[-1]
    cert = _simulable(target, leaves, blocks + weights)
    if not replay_simulation(cert, target, leaves, tol):
        raise CertificateError("irreducible decomposition certificate failed to replay")
    return IrreducibleDecomposition(tuple(leaves), cert)


@dataclass(frozen=True)
class NoiseContentResult:
    """Largest trivial weight in any convex decomposition of the observable."""

    value: object
    trivial_weights: tuple
    residual: Optional[Observable]


def noise_content(target: Observable,
                  tol: Tolerance = DEFAULT_TOLERANCE) -> NoiseContentResult:
    """Largest lambda with A = lambda N + (1 - lambda) B, N trivial.

    Closed form w(A) = sum_x min_s A_x(s). Writing m_x = lambda * t(x), the
    residual A_x - m_x u stays in the effect cone exactly when m_x is at
    most the least value of A_x on a state (`space.min_values`, one call for
    every outcome: the minimum over extreme states, or the least eigenvalue
    for the qubit), and the outcomes do not constrain each other, so each
    m_x takes that minimum.

    The minima and the residual read the target's `cleared_rows`, N over
    D, and the unit cleared over D too (U, `joined`): `min_values(N, D)`
    gives the minima. In exact mode, with m_x = p_x / q_x and 1 - lambda =
    r / s, residual coefficient d of outcome x is the one Fraction (q_x
    N_x(d) - p_x U(d)) s / (D q_x r) of integer products; in float mode,
    where D = 1, it is (N_x(d) - m_x U(d)) / (1 - lambda) in floats.
    """
    if target.space is None:
        raise ValueError("noise content needs the state space")
    space = target.space
    F = resolve((target.kind, space.kind), tol)
    N, U, D = joined(F, target.cleared_rows, scaled(F, space.unit))
    m = space.min_values(N, D)
    if not all(mx >= -F.eps for mx in m):  # a NaN fails too
        raise ValueError("noise content needs valid effects")
    m = [max(mx, F.zero) for mx in m]
    lam = sum(m)
    if lam <= F.eps:
        return NoiseContentResult(F.zero, (F.one / len(m),) * len(m), target)
    t_weights = tuple(mx / lam for mx in m)
    if abs(lam - 1) <= F.eps:
        rows = [vscale(tw, space.unit) for tw in t_weights]
    elif F.mode == FLOAT:  # on Python floats: a numpy scalar would reach the effects
        rows = [[(c - x * u) / (F.one - lam) for c, u in zip(row, U.tolist())]
                for row, x in zip(N.tolist(), m)]
    else:
        r, s = (F.one - lam).as_integer_ratio()
        rows = [[Fraction((x.denominator * c - x.numerator * u) * s, D * x.denominator * r)
                 for c, u in zip(row, U)] for row, x in zip(N, m)]
    return NoiseContentResult(lam, t_weights,
                              Observable(tuple(zip(target.labels, map(Effect, rows))), space))


def smin(targets: Sequence[Observable], pool: Sequence[Observable],
         k_max: int = 4, tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[int]:
    """Smallest k <= k_max with a k-subset of the pool simulating every target.

    Exhaustive search in increasing k, subsets in lexicographic order.
    Returns None when no subset of size <= k_max works (unknown above
    k_max); the value is exact relative to the pool. An empty target list
    or pool, or k_max < 1, raises ValueError.
    """
    targets, pool = list(targets), list(pool)
    if not targets:
        raise ValueError("targets must be nonempty")
    if not pool:
        raise ValueError("pool must be nonempty")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    for k in range(1, min(k_max, len(pool)) + 1):
        for subset in itertools.combinations(pool, k):
            if all(is_simulable(t, list(subset), tol).simulable for t in targets):
                return k
    return None


def dichotomic_hull_necessary(target: Observable,
                              simulators: Sequence[Observable],
                              tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Necessary condition for simulability from dichotomic observables.

    Each target effect must lie in conv({B_i effects} u {o, u}); any outside
    verdict certifies non-simulability (the converse fails in general).
    """
    simulators = list(simulators)
    _check_same_space(target, simulators)
    if any(sim.n_outcomes != 2 for sim in simulators):
        raise ValueError("simulators must all be dichotomic")
    mode = _common_field(target, simulators, tol).mode
    unit = target.unit_coeffs()
    zero = tuple(0 * u for u in unit)
    gens = [e.coeffs for sim in simulators for e in sim.effects] + [zero, tuple(unit)]
    return {lab: geometry.in_convex_hull(eff.coeffs, gens, mode=mode, tol=tol)
            for lab, eff in target.outcomes}


@dataclass(frozen=True)
class ClosureDiagnostics:
    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_closure_laws(sample: Sequence[Observable], base: Sequence[Observable],
                       tol: Tolerance = DEFAULT_TOLERANCE) -> ClosureDiagnostics:
    """Verify closure-operator behaviour of the simulation map on a sample.

    Checks: every base member simulates from the base; mixtures and
    postprocessings of simulable sample members stay simulable; and the
    transitivity surrogate (simulable A adjoined to the base adds nothing).
    An empty base raises ValueError, as empty simulators do in `is_simulable`.
    """
    sample = list(sample)
    base = list(base)
    if not base:
        raise ValueError("base must be nonempty")
    F = _common_field(sample[0] if sample else base[0], base, tol)
    half = F.one / 2
    checks = 0
    violations = []
    for i, b in enumerate(base):
        checks += 1
        if not is_simulable(b, base, tol).simulable:
            violations.append(f"(sim1) base member {i} not simulable from base")
    in_sim = [is_simulable(a, base, tol).simulable for a in sample]
    for i in range(len(sample) - 1):
        if not (in_sim[i] and in_sim[i + 1]):
            continue
        checks += 1
        mixed = mix_observables([sample[i], sample[i + 1]], [half, half])
        if not is_simulable(mixed, base, tol).simulable:
            violations.append(f"(sim6) mixture of samples {i},{i + 1} escapes sim(base)")
    for i, a in enumerate(sample):
        if not in_sim[i]:
            continue
        checks += 1
        post = apply(merge_channel(a.labels, a.labels[:2], a.labels[0], F.mode), a)
        if not is_simulable(post, base, tol).simulable:
            violations.append(f"(sim7) postprocessing of sample {i} escapes sim(base)")
    for i, a in enumerate(sample):
        if not in_sim[i]:
            continue
        c = sample[(i + 1) % len(sample)]
        checks += 1
        if is_simulable(c, base + [a], tol).simulable and not in_sim[(i + 1) % len(sample)]:
            violations.append(
                f"(sim2) sample {(i + 1) % len(sample)} simulable via adjoined "
                f"sample {i} but not from base alone")
    return ClosureDiagnostics(checks, tuple(violations))


@dataclass(frozen=True)
class MonotonicityDiagnostics:
    holds: bool
    target_noise: object
    simulator_noise: tuple


def noise_monotonicity_check(target: Observable, simulators: Sequence[Observable],
                             tol: Tolerance = DEFAULT_TOLERANCE) -> MonotonicityDiagnostics:
    """Assert the simulated observable is at least as noisy as some simulator."""
    cert = is_simulable(target, simulators, tol)
    if not cert.simulable:
        raise ValueError("noise monotonicity requires a simulable target")
    eps = _common_field(target, simulators, tol).eps
    w_target = noise_content(target, tol).value
    w_sims = tuple(noise_content(b, tol).value for b in simulators)
    return MonotonicityDiagnostics(w_target >= min(w_sims) - eps, w_target, w_sims)


def _targets_space(targets: list):
    """The one state space of a target list; ValueError for no targets,
    mixed spaces, or none."""
    if not targets:
        raise ValueError("targets must be nonempty")
    space = targets[0].space
    if any(t.space is not space and t.space != space for t in targets):
        raise ValueError("mixed state spaces rejected")
    if space is None:
        raise ValueError("compatibility needs the state space")
    return space


@dataclass(frozen=True)
class CompatibilityResult:
    verdict: str  # compatible | incompatible | undecided
    joint: Optional[Observable] = None
    marginal_channels: Optional[tuple] = None
    farkas: Optional[tuple] = None

    @property
    def compatible(self) -> bool:
        return self.verdict == "compatible"


# Column-generation rounds before a compatibility decision gives up as undecided.
_ROUNDS = 32


def _prices(space, y: Sequence, counts: Sequence[int], F, tol: Tolerance) -> tuple:
    """`space.prices` of z_w for every joint outcome w of targets with these
    outcome counts, in product order, where z_w is y, a vector of the full
    layout of `is_compatible`, summed over the blocks that w enters: one
    array accumulation from zero, target by target, as a Python sum adds."""
    omegas = np.array(list(itertools.product(*map(range, counts))))
    Y = np.array(y, dtype=F.dtype).reshape(-1, space.ambient_dim)
    Z = np.zeros((len(omegas), Y.shape[1]), dtype=F.dtype)
    for first, column in zip(itertools.accumulate(counts, initial=0), omegas.T):
        Z += Y[first + column]
    return space.prices(Z, tol)


def _holds(space, A: np.ndarray, counts: Sequence[int], F, tol: Tolerance,
           farkas: Optional[tuple] = None, joint: Optional[np.ndarray] = None,
           channels: Optional[tuple] = None) -> bool:
    """The definition's test of a compatibility answer for targets with
    these outcome counts whose effects are the rows of A, in the field F:
    `replay_compatibility`, a store hit and the LP's own answers all ask it.

    A refutation y (`farkas`, one entry per row of the full layout) holds
    when y.b > max(0, max_w price(z_w)), b the rows of A in order
    (`is_compatible` says why). A joint (one row of coefficients per joint
    outcome) holds with the marginal channels (C, E) (`_stacked`) when it
    lies in the cone (one `space.min_values` call), sums to the unit, and
    the marginals C.T @ joint equal A: exactly in exact mode (the joint, A
    and the unit cleared over one D first), within eps in float mode, and an
    inf or a NaN fails. That the channels are stochastic is the caller's to
    know: a store's are its deterministic ones, fixed per layout, and
    `replay_compatibility` tests those it is given."""
    if farkas is not None:
        prices, _ = _prices(space, farkas, counts, F, tol)
        return bool(vdot(farkas, A.ravel().tolist()) > max(F.zero, *prices))
    C, E = channels
    J, A, U, D = cleared(F, joint.ravel(), A.ravel(), space.unit)
    dim, eps = space.ambient_dim, F.eps
    J = J.reshape(-1, dim)
    if not all(v >= -eps for v in space.min_values(J)):  # J is the joint times D > 0
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or a NaN fails
        return bool((abs(J.sum(axis=0) - U) <= eps).all()
                    and (abs(C.T @ J - A.reshape(-1, dim) * E) <= eps).all())  # times D E


def _stacked(matrices: Sequence, joint: int, F) -> tuple:
    """(C, E): the matrices of channels from `joint` joint outcomes side by
    side, cleared over one scale E (`cleared`): row w of C holds every
    channel's row w in turn, so C.T @ J stacks the marginals of the joint J
    in the layout of b."""
    C, E = cleared(F, [x for w in range(joint) for matrix in matrices for x in matrix[w]])
    return C.reshape(joint, -1), E


def _joint_effects(owners, weights, vectors: np.ndarray, n: int, F) -> np.ndarray:
    """The coefficients of the n joint effects G_w, a row each: G_w is the
    sum of x g over the terms (w, x, g) of `owners`, `weights` and the rows
    of `vectors` whose owner w is not negative, added in term order from
    zero as a Python sum adds them (`np.add.at`)."""
    used = owners >= 0
    coeffs = np.full((n, vectors.shape[1]), F.zero, dtype=F.dtype)
    np.add.at(coeffs, owners[used],
              (np.asarray(weights, dtype=F.dtype)[:, None] * vectors)[used])
    return coeffs


def _turned(values, frame: np.ndarray, dim: int) -> np.ndarray:
    """values, read as consecutive blocks of dim coefficients, each block v
    mapped to frame @ v: one row per block."""
    return np.asarray(values, dtype=float).reshape(-1, dim) @ frame.T


def _owners(basis, gens: int, joint: int) -> tuple:
    """(joint outcome, generator index) of each basic column of a program
    over `gens` generators and `joint` joint outcomes, where column
    w * gens + g holds generator g under joint outcome w: two int arrays,
    with joint outcome -1 for row i's artificial, column joint * gens + i,
    whose index is any one below `gens`."""
    if not gens:  # every basic column is an artificial
        return np.full(len(basis), -1), np.zeros(len(basis), dtype=int)
    owners, index = np.divmod(basis, gens)
    owners[owners >= joint] = -1
    return owners, index


def _columns(owners, index, gens: int, joint: int) -> list:
    """The basis that `_owners` read, as columns of the program over `gens`
    generators and `joint` joint outcomes."""
    artificial = joint * gens + np.arange(len(owners))
    return np.where(owners >= 0, owners * gens + index, artificial).tolist()


class _JointAnswers(Answers):
    """The layout of `is_compatible`'s programs for targets of fixed outcome
    counts, and the answers of their solves (`lp.Answers`, at most 64 of
    each kind), each in the canonical frame of the targets it was solved for
    (`space.canonical_frame`: the identity for a polytope, a rotation for
    the qubit, so every rotation of one orthogonal triple reads one b).

    A program keeps the full layout's blocks in `kept` (a basis reads b on
    their rows, `reads`), and `entries` places the generators: (program
    block, joint outcome) for every block a joint outcome enters. The
    generators change from call to call, so a basis's payload is one array
    pair, the joint outcome of each row's basic column (-1 for an
    artificial) and its generator (any one for an artificial): B^-1 b >=
    -eps gives the joint effects G_w, and the generators, turned back and
    joined to a call's own, let that call's solve start from the basis
    (`restored`). A basis has no key: the same one may be stored twice. A
    refutation is its full-layout y, also its payload, with its target-free
    bound P(y) = max(0, max_w price(z_w)), which every joint observable's
    y.b stays below, whatever generators built it. The deterministic
    marginal channels are cleared once per layout (`channels`, as
    `_stacked` gives them), so their range and row sums need no test."""

    def __init__(self, counts: Sequence[int], dim: int, F):
        super().__init__(F, cap=64)
        self.counts, self.dim = counts, dim
        self.joint_outcomes = list(itertools.product(*map(range, counts)))
        # Full-layout block b = firsts[ti] + li holds the rows of (target ti,
        # outcome li); the programs keep every block but the last of each
        # target after the first, and kept[j] is the full block of block j.
        firsts = list(itertools.accumulate(counts, initial=0))
        self.kept = [b for b in range(firsts[-1]) if b + 1 not in firsts[2:]]
        self.reads = (np.array(self.kept)[:, None] * dim + np.arange(dim)).ravel()  # b's kept rows
        at = {b: j for j, b in enumerate(self.kept)}
        self.entries = tuple(zip(*((at[firsts[ti] + li], w)
                                   for w, omega in enumerate(self.joint_outcomes)
                                   for ti, li in enumerate(omega) if firsts[ti] + li in at)))
        self.marginals = tuple(  # target ti's channel: w -> w_ti
            tuple(tuple(F.one if omega[ti] == li else F.zero for li in range(n))
                  for omega in self.joint_outcomes)
            for ti, n in enumerate(counts))
        self.channels = _stacked(self.marginals, len(self.joint_outcomes), F)
        self.labelled = None  # (targets' labels, joint labels, channels) of the last result

    def result(self, targets: Sequence[Observable], coeffs: list) -> CompatibilityResult:
        """The compatible verdict for the joint effects `coeffs` on the joint
        outcomes, labelled `a|b|...` by the targets' labels, with the
        deterministic marginal channels; labels and channels are made once
        for a run of targets with the same labels."""
        key = tuple(t.labels for t in targets)
        if self.labelled is None or self.labelled[0] != key:
            joint = tuple("|".join(t.labels[li] for t, li in zip(targets, omega))
                          for omega in self.joint_outcomes)
            self.labelled = key, joint, tuple(Postprocessing(joint, t.labels, matrix)
                                              for t, matrix in zip(targets, self.marginals))
        _, joint, channels = self.labelled
        return CompatibilityResult("compatible", marginal_channels=channels, joint=Observable(
            tuple(zip(joint, map(Effect, coeffs))), targets[0].space))

    def refuted(self, y: np.ndarray, targets: Sequence[Observable], A: np.ndarray, frame,
                tol: Tolerance) -> Optional[CompatibilityResult]:
        """The incompatible verdict of a stored refutation turned back by
        `frame` into the targets' frame, if it passes `_holds`."""
        if frame is not None:
            y = _turned(y, frame.T, self.dim)
        farkas = tuple(y.ravel().tolist())
        if _holds(targets[0].space, A, self.counts, self.F, tol, farkas=farkas):
            return CompatibilityResult("incompatible", farkas=farkas)

    def solved(self, hits, targets: Sequence[Observable], A: np.ndarray, frame,
               tol: Tolerance) -> list:
        """The compatible verdict of a feasible stored basis, its joint turned
        back by `frame`, if it passes `_holds`."""
        ((_, (owners, vectors), values),) = hits
        J = _joint_effects(owners, values, vectors, len(self.joint_outcomes), self.F)
        if frame is not None:
            J = _turned(J, frame.T, self.dim)
        holds = _holds(targets[0].space, A, self.counts, self.F, tol, joint=J,
                       channels=self.channels)
        return [self.result(targets, J.tolist()) if holds else None]

    def restored(self, payload, gens: Sequence, frame) -> tuple:
        """(gens, then the generators of the stored basis `payload` turned
        back by `frame` that are not among them; that basis as `_owners`
        reads it over those generators)."""
        owners, vectors = payload
        if frame is not None:
            vectors = _turned(vectors, frame.T, self.dim)
        gens = list(gens)
        at = {tuple(g): k for k, g in enumerate(gens)}
        index = []
        for w, g in zip(owners.tolist(), vectors.tolist()):
            k = 0
            if w >= 0:
                k = at.setdefault(tuple(g), len(gens))
                if k == len(gens):
                    gens.append(tuple(g))
            index.append(k)
        return gens, (owners, np.array(index, dtype=int))

    def kept_refutation(self, y: tuple, bound, frame):
        """A full-layout refutation with its bound P(y), turned by `frame`."""
        y = (np.array(y, dtype=self.F.dtype) if frame is None else _turned(y, frame, self.dim)).ravel()
        return y, y, bound

    def kept_basis(self, out, vectors: np.ndarray, frame):
        """The final basis of a solve over the generators `vectors` (one row
        each), turned by `frame`."""
        owners, index = _owners(out.basis, len(vectors), len(self.joint_outcomes))
        inverse, basic = out.inverse, vectors[index]
        if frame is not None:  # a float B^-1: a frame is a rotation
            inverse = _turned(inverse, frame, self.dim).reshape(inverse.shape)
            basic = _turned(basic, frame, self.dim)
        return (owners, basic), None, inverse, owners >= 0


def is_compatible(targets: Sequence[Observable], tol: Tolerance = DEFAULT_TOLERANCE,
                  generators: Optional[Sequence] = None) -> CompatibilityResult:
    """Joint-observable existence on the product outcome set.

    The joint effects G_w are nonnegative combinations of effect-cone
    generators (`space.generators(tol)` unless given), so the marginal
    requirements are linear equalities. If they are infeasible, the Farkas
    vector y summed over the rows each joint outcome w enters gives z_w, and
    every joint observable has y.b = sum_w z_w.G_w <= sum_w G_w(c)
    price(z_w) <= max(0, max_w price(z_w)), as sum_w G_w(c) = u(c) = 1 at
    the cone's interior state c. A larger y.b refutes compatibility;
    otherwise the effects attaining a positive price join the generators
    and the program is solved again, up to `_ROUNDS` programs (then
    undecided). A polytope starts from every dual-cone ray, so its first
    program decides. Equivalent to smin(targets) <= 1.

    The targets are read once: their effects become one array A, a row per
    effect in target order, in the field of the targets and the generators
    (`spaces.valid_effect_rows`, which also tests that every target is a
    valid observable). The canonical frame, the stored answers' b, the
    program's right-hand side and every replay read A. Targets without a
    state space, or of another dimension than it, raise ValueError before
    any stored answer is read.

    Row layout: the full layout has a block of dim rows per (target t,
    outcome l), in target order and then outcome order, each matching
    coefficient d of A^t_l with the marginal sum_{w: w_t = l} G_w(d). The
    program drops the last-outcome block of every target after the first,
    so it has dim * (sum_t n_t - (k - 1)) rows for k targets. Those rows are
    implied: row (t, last, d) = sum_l row (0, l, d) - sum_{l < last}
    row (t, l, d), with right-hand side A^t_last(d) = u(d) - sum_{l < last}
    A^t_l(d), since every target is valid (effects sum to u, exactly in
    exact mode, within eps per coordinate in float mode). A Farkas vector of
    the program is padded with zeros in the dropped blocks, which keeps it a
    refutation of the full layout, so `farkas` has one entry per full-layout
    row and the pricing reads it. Every verdict the LP reaches is replayed
    against the definition by the predicate that `replay_compatibility`
    asks (`_holds`), and one that fails raises CertificateError: a float
    joint is so tested on the dropped blocks too, each marginal within eps
    of its target in each coordinate (in exact mode the identity makes them
    hold).

    The program's A depends on the targets only through their outcome
    counts (and on the generators), so the layout's stored answers
    (`_JointAnswers`, read by `lp.Answers.decide` on the targets' b in the
    canonical frame) are read first; one that fails the same predicate is
    a miss. They may decide what the LP would leave undecided after
    `_ROUNDS` programs (too few generators). A float solve starts from a
    basis (`lp_solve`'s `start`, the dual phase): the first from the start
    the store names, whose generators, turned back by `frame`, join the
    program's columns where they are not among them, and each later one
    from the basis the round before ended on, its columns renumbered for
    the generators that round added. Exact solves start cold.
    """
    targets = list(targets)
    space = _targets_space(targets)
    A = valid_effect_rows(targets, space, tol)
    if A is None:
        raise ValueError("compatibility targets must be valid observables")
    gens = space.generators(tol) if generators is None else generators
    # Generators share one arithmetic, so the first stands for all of them.
    F = resolve((*(t.kind for t in targets), kind_of(x for g in gens[:1] for x in g)), tol)
    A, zero, dim = A.astype(F.dtype, copy=False), F.zero, space.ambient_dim
    counts = tuple(t.n_outcomes for t in targets)
    store = answers(("compatibility", lp_solve, space, counts, F.mode, F.eps),
                    lambda: _JointAnswers(counts, dim, F))
    frame = space.canonical_frame(A, tol)
    b, L = scaled(F, (A if frame is None else A @ frame.T).ravel())
    ((result, near),) = store.decide([np.asarray(b, dtype=F.dtype)], [L], targets, A, frame, tol)
    if result is not None:
        return result
    joint, kept, (blocks, ws) = len(store.joint_outcomes), store.kept, store.entries
    rhs = A[kept].ravel().tolist()
    basic = None  # the start, as `_owners` reads it (float mode only)
    if near is not None:
        gens, basic = store.restored(near, gens, frame)
    for _ in range(_ROUNDS):
        # Block j holds the generators (as columns) under every joint outcome
        # w with w_ti = li for its (ti, li), and zeros elsewhere. The blocks
        # are placed, not multiplied in: 0.0 * x is -0.0 for negative x.
        vectors = np.array(gens, dtype=F.dtype).reshape(len(gens), dim)
        P = np.full((len(kept), dim, joint, len(gens)), zero, dtype=F.dtype)
        P[blocks, :, ws, :] = vectors.T
        rows = P.reshape(len(kept) * dim, joint * len(gens))
        start = None if basic is None else _columns(*basic, len(gens), joint)
        out = lp_solve(make_program(rows=rows, rhs=rhs), tol=tol, start=start)
        if out.verdict == FEASIBLE:
            break
        y = [zero] * A.size  # zeros in the dropped blocks
        for j, b in enumerate(kept):
            y[b * dim:(b + 1) * dim] = out.farkas[j * dim:(j + 1) * dim]
        prices, priced = _prices(space, y, counts, F, tol)
        bound = max(zero, *prices)
        if vdot(out.farkas, rhs) > bound:
            result = CompatibilityResult("incompatible", farkas=tuple(y))
            if not _holds(space, A, counts, F, tol, farkas=result.farkas):
                raise CertificateError("compatibility refutation fails replay")
            store.keep_refutation(result.farkas, bound, frame)
            return result
        if F.mode == FLOAT:
            basic = _owners(out.basis, len(gens), joint)
        gens = [*gens, *(g for p, g in zip(prices, priced) if p > 0)]
    else:
        return CompatibilityResult("undecided")
    sol = np.array(out.solution, dtype=F.dtype)
    used = np.flatnonzero(sol)  # the nonzero weights
    J = _joint_effects(used // len(gens), sol[used], vectors[used % len(gens)], joint, F)
    if not _holds(space, A, counts, F, tol, joint=J, channels=store.channels):
        raise CertificateError("compatibility joint fails replay")
    store.keep_basis(out, vectors, frame)
    return store.result(targets, J.tolist())


def replay_compatibility(result: CompatibilityResult, targets: Sequence[Observable],
                         tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Re-check a compatibility verdict against the definition, from the
    result and the targets alone: it builds no program and reads no
    generators. Exact values are compared exactly, float values within eps,
    and an inf or a NaN fails; an undecided result has nothing to replay and
    fails. Targets without a state space, or of another dimension than it,
    raise ValueError, as in `is_compatible`.

    This is a thin wrapper around the one predicate that also tests every
    answer `is_compatible` returns, stored or solved (`_holds`): it checks
    what the arrays do not carry (the result's verdict and shape, the
    joint's space and dimension, and the channels' count and labels) and
    that each channel is stochastic (`Postprocessing.is_stochastic`), then
    hands the predicate the targets' effects, the joint's and the channels'
    stacked matrices as arrays in the field of all of them.

    A refutation is a vector y of the full layout of `is_compatible` (a
    block of dim entries per target outcome, in target order). With z_w the
    sum of y's blocks that the joint outcome w enters, every joint
    observable has y.b <= max(0, max_w price(z_w)), b the targets' effects
    in the same layout (`is_compatible` says why), so y replays when y.b
    exceeds that bound. A compatible verdict replays when the joint is an
    observable on the targets' space whose effects lie in the cone
    (`space.min_values` >= -eps, one call for all) and sum to the unit, and
    each marginal channel, stochastic and from the joint's labels to its
    target's, reproduces its target in every coordinate of every effect."""
    targets = list(targets)
    space = _targets_space(targets)
    dim, counts = space.ambient_dim, [t.n_outcomes for t in targets]
    if any(t.dim != dim for t in targets):
        raise ValueError("effect dimension does not match state space")
    rows = [eff.coeffs for t in targets for eff in t.effects]
    if result.verdict == "incompatible":
        y = result.farkas
        if y is None or len(y) != len(rows) * dim:
            return False
        F = resolve((*(t.kind for t in targets), kind_of(y)), tol)
        return _holds(space, np.array(rows, dtype=F.dtype), counts, F, tol, farkas=y)
    joint, channels = result.joint, result.marginal_channels
    if (not result.compatible or joint is None or channels is None
            or len(channels) != len(targets) or joint.space != space or joint.dim != dim
            or any(chan.source != joint.labels or chan.target != t.labels
                   or not chan.is_stochastic(tol) for chan, t in zip(channels, targets))):
        return False
    F = resolve((joint.kind, *(chan.kind for chan in channels), *(t.kind for t in targets)), tol)
    return _holds(space, np.array(rows, dtype=F.dtype), counts, F, tol,
                  joint=np.array([e.coeffs for e in joint.effects], dtype=F.dtype),
                  channels=_stacked([chan.matrix for chan in channels], joint.n_outcomes, F))
