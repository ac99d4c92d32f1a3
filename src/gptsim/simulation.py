"""Simulability of observables by mixing-and-postprocessing schemes.

An observable A is simulable from a set of simulators when it can be written
as A_y = sum_i p_i (nu_i o B_i)_y for a probability distribution p and
channels nu_i. Substituting M_i = p_i * nu_i linearizes the bilinear form
exactly, so membership is one LP feasibility problem: nonnegative variables
M_i[x,y] with constant row sums c_i inside each simulator, sum_i c_i = 1,
and effect-matching equalities. Feasible solutions are unfolded back into
weights and channels; infeasibility yields a Farkas certificate. Both replay
through the LP verifiers against the same program. With one simulator B the
simulation set is {nu o B}, so the postprocessing relation is this program
and this certificate too, with weights (1,) and one channel
(`postprocessing.is_postprocessing_of`).

The module also hosts the derived notions: simulation irreducibility,
decomposition into irreducibles (the constructive splitting argument),
noise content, the minimal simulation number over an explicit simulator
pool, the necessary dichotomic convex-hull condition, closure-law
diagnostics, and compatibility: one joint-observable program on the product
outcome set for every effect cone, grown by column generation from the
cone's generators and refuted through its `price` (one round for a
polytope, whose generators are all its dual-cone rays).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .lp import (
    FEASIBLE,
    CertificateError,
    LinearProgram,
    lp_solve,
    make_program,
    verify_farkas,
    verify_solution,
)
from .postprocessing import (
    Postprocessing,
    apply,
    compose,
    is_postprocessing_clean,
    merge_channel,
    minimally_sufficient,
    minimally_sufficient_with_channels,
)
from .scalars import DEFAULT_TOLERANCE, FLOAT, Tolerance, field, kind_of, resolve, vdot, vscale
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


_memo = ((), None)  # ((target, *simulators), program) of the last program built


def simulation_program(target: Observable,
                       simulators: Sequence[Observable]) -> LinearProgram:
    """The feasibility LP whose solutions are scaled simulation schemes.

    Variables are the blocks M_i[x,y] >= 0 followed by the weights c_i; the
    constraints are constant row sums within each simulator, total weight
    one, and effect matching. Row g < X (X the simulators' outcomes in turn)
    holds ones across block row g and -1 in its simulator's weight column;
    row X is the weight row; row X + 1 + y * dim + d matches coefficient d
    of target effect y with the simulators' coefficients d under column y
    of every block. Float mode places these blocks into one zeroed float
    ndarray, which the float kernel and the float verifiers take as it is.
    Exact mode keeps tuples of int 0 and +-1 and the effects' own numbers,
    which the exact kernel clears to integers: an object array placed the
    same way holds the same entries but is slower to build.

    The last program is memoized by the identity (`is`) of the target and of
    each simulator, so a replay right after its decision reuses it; the memo
    holds the observables, so their ids are not recycled. A miss drops the
    memoized program before it builds the next one.
    """
    global _memo
    key, (last_key, program) = (target, *simulators), _memo
    if len(key) == len(last_key) and all(a is b for a, b in zip(key, last_key)):
        return program
    _memo = program = ((), None)  # no reference to the last program outlives the build
    F = _common_field(target, simulators)
    ny, dim, k = target.n_outcomes, target.dim, len(simulators)
    sizes = [sim.n_outcomes for sim in simulators]
    nx = sum(sizes)
    c0 = nx * ny  # block M_i starts at column ny * (outcomes of the simulators before i)
    zero, one = (F.zero, F.one) if F.mode == FLOAT else (0, 1)
    rhs = [zero] * nx + [one] + [x for eff in target.effects for x in eff.coeffs]
    effects = [eff.coeffs for sim in simulators for eff in sim.effects]  # row g's effect
    if F.mode == FLOAT:
        # Placed, not multiplied in: 0.0 * x is -0.0 for negative x.
        rows = np.zeros((nx + 1 + ny * dim, c0 + k))
        g = np.arange(nx)
        rows[:nx, :c0].reshape(nx, nx, ny)[g, g] = 1.0
        rows[g, c0 + np.repeat(np.arange(k), sizes)] = -1.0
        rows[nx, c0:] = 1.0
        coeffs = np.array(effects, dtype=float).T  # column g: row g's effect
        rows[nx + 1:, :c0].reshape(ny, dim, nx, ny)[range(ny), :, :, range(ny)] = coeffs
    else:
        rows = []  # of tuples, which make_program keeps without a second copy
        owners = (i for i, n in enumerate(sizes) for _ in range(n))  # row g's simulator
        for g, i in enumerate(owners):
            row = [0] * (c0 + k)
            row[g * ny:(g + 1) * ny] = [1] * ny
            row[c0 + i] = -1
            rows.append(tuple(row))
        rows.append((0,) * c0 + (1,) * k)
        for yi in range(ny):
            for d in range(dim):
                row = [0] * (c0 + k)
                row[yi:c0:ny] = [coeffs[d] for coeffs in effects]
                rows.append(tuple(row))
    program = make_program(rows=rows, rhs=rhs)
    _memo = (key, program)
    return program


def is_simulable(target: Observable, simulators: Sequence[Observable],
                 tol: Tolerance = DEFAULT_TOLERANCE) -> SimulationCertificate:
    """Decide membership of `target` in the simulation set of `simulators`."""
    simulators = list(simulators)
    _check_same_space(target, simulators)
    F = _common_field(target, simulators, tol)
    program = simulation_program(target, simulators)
    out = lp_solve(program, mode=F.mode, tol=tol)
    if out.verdict != FEASIBLE:
        return SimulationCertificate(NOT_SIMULABLE, farkas=out.farkas)

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
    """Re-check a simulation certificate against its instance.

    A refutation replays as a Farkas vector of `simulation_program`. Simulable
    weights and channels must match the simulators' and target's labels and
    be stochastic; they then replay as that program's solution
    (w_i nu_i[x,y] ..., w_i ...).
    """
    simulators = list(simulators)
    mode = _common_field(target, simulators, tol).mode
    program = simulation_program(target, simulators)
    if not cert.simulable:
        return verify_farkas(program, cert.farkas, tol=tol, mode=mode)
    if not len(cert.weights) == len(cert.channels) == len(simulators):
        return False
    if any(chan.source != sim.labels or chan.target != target.labels
           or not chan.is_stochastic(tol)
           for chan, sim in zip(cert.channels, simulators)):
        return False
    blocks = [w * v for w, chan in zip(cert.weights, cert.channels)
              for row in chan.matrix for v in row]
    return verify_solution(program, (*blocks, *cert.weights), tol=tol, mode=mode)


def merge_duplicate_simulators(weights, channels, simulators) -> tuple:
    """Combine certificate entries that use the same simulator observable.

    Weights add; channels merge as the weight-average, matching the
    multiplicity-reduction argument for repeated simulators. A group whose
    total weight is negligible (default tolerance) keeps its first channel.
    """
    F = resolve([kind_of(weights)])
    # An observable's identity is its labelled effect table.
    keys = [tuple((lab, eff.coeffs) for lab, eff in sim.outcomes) for sim in simulators]
    grouped = {}  # key -> [total weight, merged channel, simulator], first-seen order
    for k, w, sim in zip(keys, weights, simulators):
        grouped.setdefault(k, [w * 0, None, sim])[0] += w
    for k, w, chan in zip(keys, weights, channels):
        total = grouped[k][0]
        if abs(total) <= F.eps:
            if grouped[k][1] is None:
                grouped[k][1] = chan
            continue
        scaled = tuple(tuple((w / total) * v for v in row) for row in chan.matrix)
        if grouped[k][1] is None:
            grouped[k][1] = Postprocessing(chan.source, chan.target, scaled)
        else:
            prev = grouped[k][1]
            summed = tuple(tuple(a + b for a, b in zip(ra, rb))
                           for ra, rb in zip(prev.matrix, scaled))
            grouped[k][1] = Postprocessing(chan.source, chan.target, summed)
    groups = list(grouped.values())
    return tuple(g[0] for g in groups), tuple(g[1] for g in groups), [g[2] for g in groups]


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
    splits: int


def decompose_to_irreducibles(target: Observable,
                              tol: Tolerance = DEFAULT_TOLERANCE) -> IrreducibleDecomposition:
    """Simulate `target` from finitely many simulation-irreducible observables.

    Constructive route: refine every effect into indecomposable summands
    (`decompose_into_indecomposables`, the state space's `refine`), pass to
    the minimally sufficient form, and while the effects stay linearly
    dependent with coefficients beta, split off
    C_i = (1 - beta_i/max beta) B_i and D_i = (1 - beta_i/min beta) B_i,
    mixing them with weight max beta / (max beta - min beta). Channels and
    weights are composed along the recursion so the returned certificate
    replays against the input.
    """
    if target.space is None:
        raise ValueError("decomposition needs the state space")
    F = field(target.mode, tol)
    one = F.one

    refined_outcomes = []
    sources = []
    for label, eff in target.outcomes:
        parts = decompose_into_indecomposables(eff, target.space, tol)
        for j, part in enumerate(parts):
            refined_outcomes.append((f"{label}.{j}", part))
            sources.append(label)
    if not refined_outcomes:
        raise ValueError("cannot decompose an all-zero observable")
    refined = Observable(tuple(refined_outcomes), target.space)
    fwd_rows = [tuple(one if lab == src else F.zero for lab in target.labels)
                for src in sources]
    merge_to_target = Postprocessing(refined.labels, target.labels, tuple(fwd_rows))

    splits = 0

    def process(obs: Observable) -> list:
        nonlocal splits
        hat, _, back = minimally_sufficient_with_channels(obs, tol)
        vecs = [e.coeffs for e in hat.effects]
        if geometry.rank(vecs, tol=tol, mode=F.mode) == len(vecs):
            return [(one, hat, back)]
        cols = [tuple(v[d] for v in vecs) for d in range(len(vecs[0]))]
        beta = geometry.null_space_vector(cols, tol=tol, mode=F.mode)
        kappa_plus = max(beta)
        kappa_minus = min(beta)
        if not (kappa_plus > F.eps and kappa_minus < -F.eps):
            raise RuntimeError("dependence coefficients must take both signs")
        lam = kappa_plus / (kappa_plus - kappa_minus)
        c_obs = Observable(
            tuple((lab, Effect(vscale(one - b / kappa_plus, eff.coeffs)))
                  for (lab, eff), b in zip(hat.outcomes, beta)), obs.space)
        d_obs = Observable(
            tuple((lab, Effect(vscale(one - b / kappa_minus, eff.coeffs)))
                  for (lab, eff), b in zip(hat.outcomes, beta)), obs.space)
        splits += 1
        out = []
        for w, leaf, chan in process(c_obs):
            out.append((lam * w, leaf, compose(back, chan)))
        for w, leaf, chan in process(d_obs):
            out.append(((one - lam) * w, leaf, compose(back, chan)))
        return out

    parts = process(refined)
    weights = tuple(w for w, _, _ in parts)
    leaves = [leaf for _, leaf, _ in parts]
    channels = tuple(compose(merge_to_target, chan) for _, _, chan in parts)
    weights, channels, leaves = merge_duplicate_simulators(weights, channels, leaves)
    cert = SimulationCertificate(SIMULABLE, weights=weights, channels=channels)
    if not replay_simulation(cert, target, leaves, tol):
        raise CertificateError("irreducible decomposition certificate failed to replay")
    return IrreducibleDecomposition(tuple(leaves), cert, splits)


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
    k_max); the value is exact relative to the pool.
    """
    if not pool:
        raise ValueError("pool must be nonempty")
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
    """
    sample = list(sample)
    base = list(base)
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
    # Rows come in blocks of dim, one block per (target ti, outcome li).
    firsts = list(itertools.accumulate((t.n_outcomes for t in targets), initial=0))
    blocks, ws = zip(*((firsts[ti] + li, w) for w, omega in enumerate(joint_outcomes)
                       for ti, li in enumerate(omega)))
    rhs = [x for t in targets for eff in t.effects for x in eff.coeffs]
    for _ in range(_ROUNDS):
        # Block (ti, li) holds the generators (as columns) under every joint
        # outcome w with w_ti = li, and zeros elsewhere. The blocks are
        # placed, not multiplied in: 0.0 * x is -0.0 for negative x.
        A = np.full((firsts[-1], dim, len(joint_outcomes), len(gens)), zero, dtype=F.dtype)
        A[blocks, :, ws, :] = np.array(gens, dtype=F.dtype).reshape(len(gens), dim).T
        rows = A.reshape(firsts[-1] * dim, len(joint_outcomes) * len(gens))
        out = lp_solve(make_program(rows=rows, rhs=rhs), mode=F.mode, tol=tol)
        if out.verdict == FEASIBLE:
            break
        y = out.farkas
        prices = [space.price([sum(y[(firsts[ti] + li) * dim + d] for ti, li in enumerate(omega))
                               for d in range(dim)], tol)
                  for omega in joint_outcomes]
        if vdot(y, rhs) > max(zero, *(p for p, _ in prices)):
            return CompatibilityResult("incompatible", farkas=y)
        gens += [g for p, g in prices if p > 0]
    else:
        return CompatibilityResult("undecided")
    sol, coeffs = out.solution, [[zero] * dim for _ in joint_outcomes]
    for i in itertools.compress(range(len(sol)), sol):  # the nonzero weights
        w, g = divmod(i, len(gens))
        coeffs[w] = [a + sol[i] * x for a, x in zip(coeffs[w], gens[g])]
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
