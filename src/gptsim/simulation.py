"""Simulability of observables by mixing-and-postprocessing schemes.

An observable A is simulable from a set of simulators when it can be written
as A_y = sum_i p_i (nu_i o B_i)_y for a probability distribution p and
channels nu_i. Substituting M_i = p_i * nu_i linearizes the bilinear form
exactly, so membership is one LP feasibility problem: nonnegative variables
M_i[x,y] with constant row sums c_i inside each simulator, sum_i c_i = 1,
and effect-matching equalities. Feasible solutions are unfolded back into
weights and channels; infeasibility yields a Farkas certificate. Both replay
against the definition, from the certificate and the observables alone
(`replay_simulation`), so a fault in the program builder cannot pass its own
replay. With one simulator B the simulation set is {nu o B}, so the
postprocessing relation is this program and this certificate too, with
weights (1,) and one channel (`postprocessing.is_postprocessing_of`).

The module also hosts the derived notions: simulation irreducibility,
decomposition into irreducibles (vertex peeling of the polytope of weights
on the target's refined rays: at most s - 2 leaves for s rays), noise
content, the minimal simulation number over an explicit simulator pool, the
necessary dichotomic convex-hull condition, closure-law diagnostics, and
compatibility: one joint-observable program on the product outcome set
for every effect cone, grown by column generation from the cone's
generators and refuted through its `price` (one round for a polytope,
whose generators are all its dual-cone rays).

Both programs leave out rows that equal effect sums imply: a simulation
program the target's last-outcome rows, a compatibility program the
last-outcome block of every target after the first. A float answer is
tested on every row, those left out included, at eps, and raises
CertificateError if it fails them; a refutation is padded with zeros in the
rows left out, so it keeps one entry per row of the full layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .lp import FEASIBLE, CertificateError, LinearProgram, lp_solve, make_program
from .postprocessing import (
    Postprocessing,
    apply,
    is_postprocessing_clean,
    merge_channel,
    minimally_sufficient,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    FLOAT,
    Tolerance,
    cleared,
    field,
    integer_row,
    kind_of,
    resolve,
    vdot,
    vscale,
)
from .spaces import (
    Effect,
    Observable,
    decompose_into_indecomposables,
    is_valid_observable,
    mix_observables,
)

SIMULABLE = "simulable"
NOT_SIMULABLE = "not_simulable"


@dataclass(frozen=True)
class SimulationCertificate:
    """Either explicit (weights, channels) or a Farkas refutation."""

    verdict: str
    weights: Optional[tuple] = None
    channels: Optional[tuple] = None
    farkas: Optional[tuple] = None

    @property
    def simulable(self) -> bool:
        return self.verdict == SIMULABLE


def _common_field(target: Observable, simulators: Sequence[Observable],
                  tol: Tolerance = DEFAULT_TOLERANCE):
    return resolve((target.kind, *(b.kind for b in simulators)), tol)


def _check_same_space(target: Observable, simulators: Sequence[Observable]):
    if not simulators:
        raise ValueError("simulators must be nonempty")
    # == and not a set: a frozen StateSpace hashes all its coordinates on
    # every call, while == between the same object returns at once
    spaces = [obs.space for obs in [target, *simulators] if obs.space is not None]
    if any(space != spaces[0] for space in spaces[1:]):
        raise ValueError("mixed state spaces rejected")
    dims = {obs.dim for obs in [target, *simulators]}
    if len(dims) > 1:
        raise ValueError("observables live in different ambient dimensions")


def _sums_agree(target: Observable, simulators: Sequence[Observable], F) -> bool:
    """Every simulator's effects sum to the target's effect sum: exactly in
    exact mode, within eps in each coordinate in float mode."""
    s = target.effect_sum
    if F.mode != FLOAT:
        return all(sim.effect_sum == s for sim in simulators)
    return all(len(sim.effect_sum) == len(s)
               and all(abs(a - b) <= F.eps for a, b in zip(sim.effect_sum, s))
               for sim in simulators)


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

    Float mode places these blocks into one zeroed float ndarray, which the
    float kernel and the float verifiers take as it is. Exact mode keeps
    tuples of int 0 and +-1 and the effects' own numbers (an object array
    placed the same way holds the same entries but is slower to build), and
    fills the program's `integer_data` from the same layout instead of
    leaving the program to scan every entry for its denominator: the
    row-sum and weight rows are their own integers over 1, and effect row
    (y, d) is cleared over one lcm, of coordinate d's simulator column
    (cleared once for every y) and A_y(d).
    """
    F = _common_field(target, simulators, tol)
    if not _sums_agree(target, simulators, F):
        raise ValueError("the target's effects and each simulator's must sum to one vector")
    ny, dim, k = target.n_outcomes, target.dim, len(simulators)
    sizes = [sim.n_outcomes for sim in simulators]
    nx = sum(sizes)
    c0 = nx * ny  # block M_i starts at column ny * (outcomes of the simulators before i)
    zero, one = (F.zero, F.one) if F.mode == FLOAT else (0, 1)
    rhs = [zero] * nx + [one] + [x for eff in target.effects[:-1] for x in eff.coeffs]
    effects = [eff.coeffs for sim in simulators for eff in sim.effects]  # row g's effect
    start = [(g, g * ny + ny - 1) for g in range(nx)]
    if F.mode == FLOAT:
        # Placed, not multiplied in: 0.0 * x is -0.0 for negative x.
        rows = np.zeros((nx + 1 + (ny - 1) * dim, c0 + k))
        g = np.arange(nx)
        rows[:nx, :c0].reshape(nx, nx, ny)[g, g] = 1.0
        rows[g, c0 + np.repeat(np.arange(k), sizes)] = -1.0
        rows[nx, c0:] = 1.0
        coeffs = np.array(effects, dtype=float).T  # column g: row g's effect
        kept = range(ny - 1)
        rows[nx + 1:, :c0].reshape(ny - 1, dim, nx, ny)[kept, :, :, kept] = coeffs
        return make_program(rows=rows, rhs=rhs, start=start)
    rows = []  # of tuples, which make_program keeps without a second copy
    integers = []  # the same rows, rhs appended, as (integers, denominator)
    owners = (i for i, n in enumerate(sizes) for _ in range(n))  # row g's simulator
    for g, i in enumerate(owners):
        row = [0] * (c0 + k)
        row[g * ny:(g + 1) * ny] = [1] * ny
        row[c0 + i] = -1
        rows.append(tuple(row))
        integers.append(((*row, 0), 1))
    rows.append((0,) * c0 + (1,) * k)
    integers.append(((0,) * c0 + (1,) * (k + 1), 1))
    columns = [[coeffs[d] for coeffs in effects] for d in range(dim)]
    over = [integer_row(column) for column in columns]  # coordinate d over its lcm
    for yi, eff in enumerate(target.effects[:-1]):
        for column, (nums, den), a in zip(columns, over, eff.coeffs):
            row = [0] * (c0 + k)
            row[yi:c0:ny] = column
            rows.append(tuple(row))
            full = lcm(den, a.denominator)  # the lcm of the row and its rhs
            if full != den:
                nums = [x * (full // den) for x in nums]
            row.append(a.numerator * (full // a.denominator))
            row[yi:c0:ny] = nums
            integers.append((tuple(row), full))
    program = make_program(rows=rows, rhs=rhs, start=start)
    vars(program)["integer_data"] = tuple(integers)  # filled before any read
    return program


def _matches_target(target: Observable, simulators: Sequence[Observable],
                    x: Sequence, F) -> bool:
    """sum_g M[g, y] B_g = A_y in every coordinate of every outcome y, the
    last included, for x in the layout of `simulation_program` (M[g, y] at
    g * ny + y, B_g the effect of the simulators' outcome g): exactly in
    exact mode, within eps in float mode; an inf or a NaN fails."""
    ny, dim = target.n_outcomes, target.dim
    effects = [c for sim in simulators for eff in sim.effects for c in eff.coeffs]
    nx = len(effects) // dim
    M, B, A, D = cleared(F, x[:nx * ny], effects,
                         [c for eff in target.effects for c in eff.coeffs])
    with np.errstate(over="ignore", invalid="ignore"):
        gap = M.reshape(nx, ny).T @ B.reshape(nx, dim) - A.reshape(ny, dim) * D  # times D^2
        return bool((abs(gap) <= F.eps).all())


def is_simulable(target: Observable, simulators: Sequence[Observable],
                 tol: Tolerance = DEFAULT_TOLERANCE) -> SimulationCertificate:
    """Decide membership of `target` in the simulation set of `simulators`.

    A target whose effects do not sum to the simulators' common effect sum
    raises ValueError (`simulation_program`). A float solution is tested on
    the rows the program drops as well, and one that fails them raises
    CertificateError. A Farkas vector is padded with zeros in the dropped
    rows, so it has one entry per row of the full program."""
    simulators = list(simulators)
    _check_same_space(target, simulators)
    F = _common_field(target, simulators, tol)
    program = simulation_program(target, simulators, tol)
    out = lp_solve(program, mode=F.mode, tol=tol)
    if out.verdict != FEASIBLE:
        return SimulationCertificate(NOT_SIMULABLE, farkas=out.farkas + (F.zero,) * target.dim)
    if F.mode == FLOAT and not _matches_target(target, simulators, out.solution, F):
        raise CertificateError("float solution fails the target's last-outcome rows")

    ny = target.n_outcomes
    pos = 0
    weights, channels = [], []
    n_m = sum(sim.n_outcomes * ny for sim in simulators)
    for i, sim in enumerate(simulators):
        block = out.solution[pos:pos + sim.n_outcomes * ny]
        pos += sim.n_outcomes * ny
        ci = out.solution[n_m + i]
        weights.append(ci)
        if abs(ci) <= F.eps:
            uniform = F.one / ny
            matrix = tuple((uniform,) * ny for _ in range(sim.n_outcomes))
        else:
            matrix = tuple(tuple(block[xi * ny + yi] / ci for yi in range(ny))
                           for xi in range(sim.n_outcomes))
        channels.append(Postprocessing(sim.labels, target.labels, matrix))
    return SimulationCertificate(SIMULABLE, weights=tuple(weights),
                                 channels=tuple(channels))


def replay_simulation(cert: SimulationCertificate, target: Observable,
                      simulators: Sequence[Observable],
                      tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Re-check a simulation certificate against the definition of
    simulation, from the certificate and the observables alone: it builds no
    program. Observables of different ambient dimensions or state spaces
    raise ValueError, as in `is_simulable`. Exact values are cleared to
    integers and compared exactly, float values within eps, and a NaN fails
    every test.

    Simulable weights w and channels nu must match the simulators' and the
    target's labels, the channels be stochastic and the weights a
    probability vector (each at least -eps, summing to 1). Then M[g, y] =
    w_i nu_i[x, y], for g the outcome x of simulator i, must give
    sum_g M[g, y] B_g = A_y for every outcome y (`_matches_target`).

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
    F = _common_field(target, simulators, tol)
    if not cert.simulable:
        ny, dim = target.n_outcomes, target.dim
        sizes = [sim.n_outcomes for sim in simulators]
        nx = sum(sizes)
        if len(cert.farkas) != nx + 1 + ny * dim:
            return False
        y, B, A, D = cleared(F, cert.farkas,
                             [c for sim in simulators for eff in sim.effects for c in eff.coeffs],
                             [c for eff in target.effects for c in eff.coeffs])
        alpha, beta, phi = y[:nx], y[nx], y[nx + 1:].reshape(ny, dim)
        starts = list(itertools.accumulate(sizes[:-1], initial=0))
        with np.errstate(over="ignore", invalid="ignore"):  # each test fails on an inf or a NaN
            columns = alpha[:, None] * D + B.reshape(nx, dim) @ phi.T  # times D^2
            weights = beta - np.add.reduceat(alpha, starts)  # times D
            value = beta * D + phi.ravel() @ A  # times D^2
            return bool((columns <= F.eps).all() and (weights <= F.eps).all() and value > F.eps)
    if not len(cert.weights) == len(cert.channels) == len(simulators):
        return False
    if any(chan.source != sim.labels or chan.target != target.labels
           or not chan.is_stochastic(tol)
           for chan, sim in zip(cert.channels, simulators)):
        return False
    if not (all(w >= -F.eps for w in cert.weights) and abs(sum(cert.weights) - 1) <= F.eps):
        return False
    x = [w * v for w, chan in zip(cert.weights, cert.channels) for row in chan.matrix for v in row]
    return _matches_target(target, simulators, x, F)


def is_simulation_irreducible(obs: Observable,
                              tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Criterion on the minimally sufficient form: linearly independent
    indecomposable effects."""
    if obs.space is None:
        raise ValueError("simulation irreducibility needs the state space")
    hat = minimally_sufficient(obs, tol)
    if not is_postprocessing_clean(hat, tol):
        return False
    vecs = [e.coeffs for e in hat.effects]
    return geometry.rank(vecs, tol=tol, mode=hat.mode) == len(vecs)


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

    Each effect A_y is refined into indecomposable parts (the space's
    `refine`), grouped by ray (`F.key` of `geometry.canonical_ray`). With E_r
    the sum of the parts on ray r and nu(y|r) the share of E_r from outcome
    y, A_y = sum_r mu_r nu(y|r) E_r at mu = 1, a point of P = {mu >= 0 :
    sum_r mu_r E_r = u}. A point of P is a vertex exactly when the E_r of
    its support are linearly independent, and then its observable (mu_r E_r)
    is simulation irreducible by the paper's criterion. The E_r are extreme
    rays of the effect cone, pairwise not proportional, so no three lie in a
    plane and dim P <= s - 3 for s >= 3. Peeling: null vectors of the
    residual's support (`geometry.null_space_vector`) walk inside its face
    to a vertex v, each step dropping a ray; the largest alpha with
    mu - alpha v >= 0 drops another. With rho the weight left (mu in rho P),
    v / rho is a leaf of weight alpha rho, and its channel is nu restricted
    to its support. Each peel leaves a proper face of the last, so at most
    dim P + 1 leaves come out. Leaf outcomes are labelled `<label>.<j>` after
    the first part on their ray. A certificate that fails
    `replay_simulation` raises CertificateError.
    """
    if target.space is None:
        raise ValueError("decomposition needs the state space")
    F = field(target.mode, tol)
    groups = {}  # ray key -> (label of its first part, [(outcome index, part)])
    for y, (label, eff) in enumerate(target.outcomes):
        for j, part in enumerate(decompose_into_indecomposables(eff, target.space, tol)):
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
            nu[y] += c[d] / total[d]
        labels.append(label)
        effects.append(total)
        shares.append(tuple(nu))
    mu, rho = dict.fromkeys(range(len(effects)), F.one), F.one
    weights, leaves, channels = [], [], []
    while mu:
        v = mu
        while (beta := geometry.null_space_vector(
                [[effects[r][i] for r in v] for i in range(target.dim)], tol, F.mode)) is not None:
            v = _drop_along(v, dict(zip(v, beta)), F)[0]
        mu, alpha = _drop_along(mu, v, F)
        leaves.append(Observable(tuple((labels[r], Effect(vscale(x / rho, effects[r])))
                                       for r, x in v.items()), target.space))
        channels.append(Postprocessing(leaves[-1].labels, target.labels,
                                       tuple(shares[r] for r in v)))
        weights.append(alpha * rho)
        rho -= weights[-1]
    cert = SimulationCertificate(SIMULABLE, weights=tuple(weights), channels=tuple(channels))
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
    most the least value of A_x on a state (`space.min_value`: the minimum
    over extreme states, or the least eigenvalue for the qubit), and the
    outcomes do not constrain each other, so each m_x takes that minimum.
    """
    if target.space is None:
        raise ValueError("noise content needs the state space")
    space = target.space
    F = resolve((target.kind, space.kind), tol)
    one, zero = F.one, F.zero
    n = target.n_outcomes
    m = []
    for eff in target.effects:
        mx = F.coerce(space.min_value(eff))
        if mx < -F.eps:
            raise ValueError("noise content needs valid effects")
        m.append(max(mx, zero))
    lam = sum(m)
    if lam <= F.eps:
        return NoiseContentResult(zero, (one / n,) * n, target)
    t_weights = tuple(mx / lam for mx in m)
    if abs(lam - 1) <= F.eps:
        residual = Observable(
            tuple((lab, Effect(vscale(tw, space.unit)))
                  for (lab, _), tw in zip(target.outcomes, t_weights)), space)
        return NoiseContentResult(lam, t_weights, residual)
    residual = Observable(
        tuple((lab, Effect(tuple((c - mx * u) / (one - lam)
                                 for c, u in zip(eff.coeffs, space.unit))))
              for (lab, eff), mx in zip(target.outcomes, m)), space)
    return NoiseContentResult(lam, t_weights, residual)


def smin(targets: Sequence[Observable], pool: Sequence[Observable],
         k_max: int = 4, tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[int]:
    """Smallest k <= k_max with a k-subset of the pool simulating every target.

    Exhaustive search in increasing k, subsets in lexicographic order.
    Returns None when no subset of size <= k_max works (unknown above
    k_max); the value is exact relative to the pool. k_max < 1 raises
    ValueError.
    """
    if not pool:
        raise ValueError("pool must be nonempty")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    pool = list(pool)
    for k in range(1, min(k_max, len(pool)) + 1):
        for subset in itertools.combinations(pool, k):
            if all(is_simulable(t, list(subset), tol).simulable for t in targets):
                return k
    return None


def _require_dichotomic(simulators: Sequence[Observable]):
    for sim in simulators:
        if sim.n_outcomes != 2:
            raise ValueError("simulators must all be dichotomic")


def dichotomic_hull_necessary(target: Observable,
                              simulators: Sequence[Observable],
                              tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Necessary condition for simulability from dichotomic observables.

    Each target effect must lie in conv({B_i effects} u {o, u}); any outside
    verdict certifies non-simulability (the converse fails in general).
    """
    simulators = list(simulators)
    _check_same_space(target, simulators)
    _require_dichotomic(simulators)
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


def _last_marginals_hold(targets: Sequence[Observable], joint_outcomes: Sequence,
                         coeffs: Sequence, eps: float) -> bool:
    """The blocks `is_compatible` drops, for a float joint with effects
    `coeffs` on `joint_outcomes`: for every target after the first, the sum
    of the joint effects whose outcome is that target's last is its last
    effect within eps in each coordinate; an inf or a NaN fails."""
    for ti, t in enumerate(targets[1:], 1):
        last = t.n_outcomes - 1
        marginal = (sum(col) for col in zip(*(c for c, omega in zip(coeffs, joint_outcomes)
                                               if omega[ti] == last)))
        if not all(abs(a - b) <= eps for a, b in zip(marginal, t.effects[-1].coeffs)):
            return False
    return True


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

    Row layout: the full layout has a block of dim rows per (target t,
    outcome l), in target order and then outcome order, each matching
    coefficient d of A^t_l with the marginal sum_{w: w_t = l} G_w(d). The
    program drops the last-outcome block of every target after the first,
    so it has dim * (sum_t n_t - (k - 1)) rows for k targets. Those rows are
    implied: row (t, last, d) = sum_l row (0, l, d) - sum_{l < last}
    row (t, l, d), with right-hand side A^t_last(d) = u(d) - sum_{l < last}
    A^t_l(d), since every target passed `is_valid_observable` (effects sum
    to u, exactly in exact mode, within eps per coordinate in float mode).
    A float joint is therefore also tested on the dropped blocks: each
    target's last marginal must be its last effect within eps in each
    coordinate, or CertificateError is raised (in exact mode the identity
    makes them hold). A Farkas vector of the program is padded with zeros in
    the dropped blocks, which keeps it a refutation of the full layout, so
    `farkas` has one entry per full-layout row and the pricing reads it.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be nonempty")
    space = targets[0].space
    if any(t.space != space for t in targets):
        raise ValueError("mixed state spaces rejected")
    if not all(is_valid_observable(t, space, tol) for t in targets):
        raise ValueError("compatibility targets must be valid observables")
    gens = list(space.generators(tol) if generators is None else generators)
    # Generators share one arithmetic, so the first stands for all of them.
    F = resolve((*(t.kind for t in targets), kind_of(x for g in gens[:1] for x in g)), tol)
    zero, dim = F.zero, space.ambient_dim
    joint_outcomes = list(itertools.product(*[range(t.n_outcomes) for t in targets]))
    # Full-layout block b = firsts[ti] + li holds the rows of (target ti,
    # outcome li); the program keeps every block but the last of each target
    # after the first, and kept[j] is the full block of program block j.
    firsts = list(itertools.accumulate((t.n_outcomes for t in targets), initial=0))
    kept = [b for b in range(firsts[-1]) if b + 1 not in firsts[2:]]
    at = {b: j for j, b in enumerate(kept)}
    blocks, ws = zip(*((at[firsts[ti] + li], w) for w, omega in enumerate(joint_outcomes)
                       for ti, li in enumerate(omega) if firsts[ti] + li in at))
    effects = [eff.coeffs for t in targets for eff in t.effects]  # full block b's effect
    rhs = [x for b in kept for x in effects[b]]
    for _ in range(_ROUNDS):
        # Block j holds the generators (as columns) under every joint outcome
        # w with w_ti = li for its (ti, li), and zeros elsewhere. The blocks
        # are placed, not multiplied in: 0.0 * x is -0.0 for negative x.
        A = np.full((len(kept), dim, len(joint_outcomes), len(gens)), zero, dtype=F.dtype)
        A[blocks, :, ws, :] = np.array(gens, dtype=F.dtype).reshape(len(gens), dim).T
        rows = A.reshape(len(kept) * dim, len(joint_outcomes) * len(gens))
        out = lp_solve(make_program(rows=rows, rhs=rhs), mode=F.mode, tol=tol)
        if out.verdict == FEASIBLE:
            break
        y = [zero] * (firsts[-1] * dim)  # zeros in the dropped blocks
        for j, b in enumerate(kept):
            y[b * dim:(b + 1) * dim] = out.farkas[j * dim:(j + 1) * dim]
        prices = [space.price([sum(y[(firsts[ti] + li) * dim + d] for ti, li in enumerate(omega))
                               for d in range(dim)], tol)
                  for omega in joint_outcomes]
        if vdot(out.farkas, rhs) > max(zero, *(p for p, _ in prices)):
            return CompatibilityResult("incompatible", farkas=tuple(y))
        gens += [g for p, g in prices if p > 0]
    else:
        return CompatibilityResult("undecided")
    sol, coeffs = out.solution, [[zero] * dim for _ in joint_outcomes]
    for i in itertools.compress(range(len(sol)), sol):  # the nonzero weights
        w, g = divmod(i, len(gens))
        coeffs[w] = [a + sol[i] * x for a, x in zip(coeffs[w], gens[g])]
    if F.mode == FLOAT and not _last_marginals_hold(targets, joint_outcomes, coeffs, F.eps):
        raise CertificateError("float joint fails a target's last-outcome marginal")
    joint = Observable(tuple(("|".join(t.labels[li] for t, li in zip(targets, omega)),
                              Effect(tuple(c))) for omega, c in zip(joint_outcomes, coeffs)),
                       space)
    channels = tuple(
        Postprocessing(joint.labels, t.labels,
                       tuple(tuple(F.one if omega[ti] == li else zero
                                   for li in range(t.n_outcomes))
                             for omega in joint_outcomes))
        for ti, t in enumerate(targets))
    return CompatibilityResult("compatible", joint=joint, marginal_channels=channels)
