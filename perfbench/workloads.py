"""The benchmark's three seeded workloads and their oracles.

A workload builds a list of `Decision`s round by round. A block of rounds
always holds the same mix of decision kinds and program sizes; the seed
only changes the inputs inside each kind. Round r draws its inputs from its
own generator, keyed by (seed, workload, r), so a corpus of R rounds is a
prefix of every longer corpus. Why each workload exists is recorded in
BENCHMARK.json and README.md.

Decisions call the library only through the `gptsim` package attributes,
which is where the tracer's wrappers are installed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import gptsim as g
from gptsim.catalog import tetrahedron_rational
from gptsim.qubit import QubitEffect, dichotomic
from gptsim.reproduce import arc_rule_count

FLOAT_EPS = 1e-8  # reconstruction slack for float noise-content checks


def _no_certificate(result):
    return True


@dataclass
class Decision:
    kind: str
    run: Callable[[], object]                      # the call plus its replay
    check: Callable[[object], Optional[str]]       # oracle: None or what is wrong
    verdict: Callable[[object], str]               # label for the verdict tally
    twin: Optional[Callable[[object], Optional[str]]] = None  # float-twin agreement
    label: str = ""                                # the input, for failure reports
    replayed: Callable[[object], bool] = _no_certificate  # did the certificate replay


def _rng(seed, stream, index):
    return random.Random(f"{seed}/{stream}/{index}")


OUTCOMES = (2, 3, 4, 5)


def _outcomes(r):
    return OUTCOMES[r % len(OUTCOMES)]


def _labelled(batch, r):
    """The decisions of round r, each labelled with its round."""
    for d in batch:
        d.label = f"round {r}" + (f", {d.label}" if d.label else "")
    return batch


# ---------------------------------------------------------------------------
# Decision kinds shared by the polytope workloads.
# ---------------------------------------------------------------------------

def _second(result):
    """The replay flag of a (certificate, replayed) result."""
    return result[1]


def simulate(kind, target, sims, expect=None, twin=False):
    sims = list(sims)

    def run():
        cert = g.is_simulable(target, sims)
        return cert, g.replay_simulation(cert, target, sims)

    def check(res):
        verdict = res[0].verdict
        if expect is not None and verdict != expect:
            return f"verdict {verdict}, oracle says {expect}"
        return None

    def float_twin(res):
        other = g.is_simulable(target.as_float(), [s.as_float() for s in sims]).verdict
        return None if other == res[0].verdict else f"float twin says {other}"

    return Decision(kind, run, check, lambda res: res[0].verdict,
                    float_twin if twin else None, replayed=_second)


def relation(kind, target, source):
    def run():
        cert = g.is_postprocessing_of(target, source)
        return cert, g.postprocessing.replay_relation(cert, target, source)

    def float_twin(res):
        other = g.is_postprocessing_of(target.as_float(), source.as_float()).verdict
        return None if other == res[0].verdict else f"float twin says {other}"

    return Decision(kind, run, lambda res: None, lambda res: res[0].verdict,
                    float_twin, replayed=_second)


def noise(kind, target, twin=False):
    """Noise content; the oracle rebuilds the target from the result."""
    space = target.space
    exact = target.mode == g.EXACT
    eps = 0 if exact else FLOAT_EPS

    def run():
        return g.noise_content(target)

    def check(res):
        lam = res.value
        if lam < -eps or lam > 1 + eps:
            return f"noise content {lam} outside [0, 1]"
        if abs(sum(res.trivial_weights) - 1) > eps:
            return "trivial weights do not sum to one"
        if not g.is_valid_observable(res.residual, space):
            return "residual observable is not valid"
        for (_, eff), tw, (_, rest) in zip(target.outcomes, res.trivial_weights,
                                           res.residual.outcomes):
            for c, u, r in zip(eff.coeffs, space.unit, rest.coeffs):
                if abs(lam * tw * u + (1 - lam) * r - c) > eps:
                    return "trivial part plus residual does not rebuild the target"
        return None

    def float_twin(res):
        other = g.noise_content(target.as_float()).value
        return None if abs(float(res.value) - other) <= 1e-9 \
            else f"float twin gives {other}, exact {res.value}"

    def verdict(res):
        return "noiseless" if res.value == 0 else "noisy"

    return Decision(kind, run, check, verdict, float_twin if twin else None)


def minimal_pool(kind, targets, pool, allowed):
    def run():
        return g.smin(targets, pool, k_max=len(pool))

    def check(res):
        return None if res in allowed else f"smin {res}, oracle allows {sorted(allowed)}"

    def float_twin(res):
        other = g.smin([t.as_float() for t in targets], [p.as_float() for p in pool],
                       k_max=len(pool))
        return None if other == res else f"float twin says smin {other}"

    return Decision(kind, run, check, str, float_twin)


def irreducible(kind, obs, expect=None):
    def run():
        return g.is_simulation_irreducible(obs)

    def check(res):
        return None if expect is None or res == expect else \
            f"irreducible={res}, oracle says {expect}"

    return Decision(kind, run, check, str)


def decompose(kind, obs):
    def run():
        dec = g.decompose_to_irreducibles(obs)
        return dec, g.replay_simulation(dec.certificate, obs, list(dec.observables))

    def check(res):
        if not all(g.is_simulation_irreducible(leaf) for leaf in res[0].observables):
            return "a decomposition leaf is not simulation-irreducible"
        return None

    return Decision(kind, run, check, lambda res: f"{len(res[0].observables)} leaves",
                    replayed=_second)


def enumerate_polygon(kind, n):
    def run():
        return g.polygon_irreducibles(n).count

    def check(res):
        formula, arcs = g.irreducible_count_formula(n), arc_rule_count(n)
        return None if res == formula == arcs else \
            f"n={n}: enumerated {res}, formula {formula}, arc rule {arcs}"

    return Decision(kind, run, check, str, label=f"n={n}")


# ---------------------------------------------------------------------------
# exact-sim: rational theories, exact tableau.
# ---------------------------------------------------------------------------

def exact_sim(seed, rounds):
    sq = g.square_bit()
    cl = g.classical(3)
    rat = tetrahedron_rational()
    g.dual_cone_rays(sq.space)
    g.dual_cone_rays(cl.space)
    # outcome counts cycle through OUTCOMES, so every block of len(OUTCOMES)
    # rounds has the same program sizes whatever the seed
    squares = [g.random_observable(sq.space, _rng(seed, "square", r), _outcomes(r))
               for r in range(rounds + 1)]
    classics = [g.random_observable(cl.space, _rng(seed, "classical", r), _outcomes(r))
                for r in range(rounds + 1)]
    binars = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    tetra = (
        ("tetra-A-from-B", rat["A"], [rat["B"]], g.simulation.SIMULABLE),
        ("tetra-B-from-binarizations", rat["B"], binars, g.simulation.NOT_SIMULABLE),
        ("tetra-B-from-trichotomic", rat["B"], [rat["D1"], rat["D2"]],
         g.simulation.NOT_SIMULABLE),
    )
    base = [sq.E, sq.F]
    yes = g.simulation.SIMULABLE
    out = []
    for r in range(rounds):
        a, b = squares[r], squares[r + 1]
        c, d = classics[r], classics[r + 1]
        kind, target, sims, expect = tetra[r % 3]
        out += _labelled([
            # the paper's square-bit universality: (E, F) simulates everything
            simulate("square-from-EF", a, base, expect=yes, twin=True),
            simulate("square-from-E", a, [sq.E], twin=True),
            simulate("square-from-F", a, [sq.F], twin=True),
            simulate("square-pair", a, [b], twin=True),
            relation("square-relation", a, b),
            noise("square-noise", a, twin=True),
            minimal_pool("square-smin", [a, b], base, allowed={1, 2}),
            # every classical observable postprocesses the distinguishing one
            simulate("classical-from-G", c, [cl.distinguishing], expect=yes, twin=True),
            simulate("classical-pair", c, [d], twin=True),
            relation("classical-relation", c, d),
            noise("classical-noise", c, twin=True),
            simulate(kind, target, sims, expect=expect, twin=True),
        ], r)
    return out


# ---------------------------------------------------------------------------
# polygon-float: regular polygons, float tableau, many small programs.
# ---------------------------------------------------------------------------

POLYGON_NS = (5, 6, 7, 8)
POLYGON_BLOCK = len(POLYGON_NS) * len(OUTCOMES)  # rounds with a fixed mix of kinds
ENUM_NS = tuple(range(9, 41))
ENUM_EVERY = 4  # one enumeration per this many rounds
# ENUM_NS in bit-reversed index order: any four consecutive entries spread
# over 9..40, and 32 consecutive ones hold each n once. Block b enumerates
# the b-th four, so every seed enumerates the same sizes (the cost of an
# enumeration grows steeply with n) and the seed only places them.
ENUM_ORDER = tuple(ENUM_NS[int(f"{i:05b}"[::-1], 2)] for i in range(len(ENUM_NS)))


def _enumerated_n(seed, slot):
    per_block = POLYGON_BLOCK // ENUM_EVERY
    block = slot // per_block
    ns = [ENUM_ORDER[(block * per_block + k) % len(ENUM_ORDER)] for k in range(per_block)]
    _rng(seed, "enumerate", block).shuffle(ns)
    return ns[slot % per_block]


def polygon_float(seed, rounds):
    catalogs = {n: g.polygon_irreducibles(n) for n in POLYGON_NS}
    for cat in catalogs.values():
        g.dual_cone_rays(cat.theory.space)
    yes = g.simulation.SIMULABLE
    out = []
    for r in range(rounds):
        rng = _rng(seed, "polygon", r)
        n = POLYGON_NS[r % len(POLYGON_NS)]
        cat = catalogs[n]
        a = g.random_observable(cat.theory.space, rng, _outcomes(r // len(POLYGON_NS)))
        member = cat.observables[rng.randrange(cat.count)]
        batch = [
            decompose(f"decompose-{n}", a),
            simulate(f"from-catalog-{n}", a, cat.observables, expect=yes),
            irreducible(f"member-irreducible-{n}", member, expect=True),
            irreducible(f"random-irreducible-{n}", a),
            noise(f"noise-{n}", a),
        ]
        if r % ENUM_EVERY == ENUM_EVERY - 1:
            batch.append(enumerate_polygon("enumerate", _enumerated_n(seed, r // ENUM_EVERY)))
        out += _labelled(batch, r)
    return out


# ---------------------------------------------------------------------------
# qubit-bracket: 128-facet compatibility brackets, large dense float programs.
# ---------------------------------------------------------------------------

FACETS = 128
T_STAR = 1.0 / math.sqrt(3.0)  # the orthogonal triple's compatibility threshold

# (kind, count per round, sampling range). The triple strata split
# [0.45, 0.62] around 1/sqrt(3): inner triples decide on the inner LP alone,
# threshold triples straddle 1/sqrt(3) and reach the outer LP, where an
# inner failure below the threshold exposes the outer LP's verdict. Pairs are
# stratified by Busch's value |a+b| + |a-b|. The counts keep the median in
# the inner-triple mode (pair inners are faster, outers slower) and leave
# few enough ~1 s triple outers per run (one per 79 decisions) that the
# tail sits well inside the pair outers instead of at their seed-dependent
# top.
QUBIT_ROUND = (
    ("triple-inner", 40, (0.45, 0.568)),
    ("triple-threshold", 1, (0.568, 0.62)),
    ("pair-compatible", 20, (1.2, 1.9)),
    ("pair-boundary", 4, (1.9, 2.0)),
    ("pair-incompatible", 14, (2.0, 2.4)),
)


def _rotation(rng):
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (v / norm for v in q)
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
            (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
            (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)))


def _unit(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _busch(a, b):
    return math.dist(a, [-x for x in b]) + math.dist(a, b)


def _unbiased(vec):
    return dichotomic("+", "-", QubitEffect(0.0, tuple(vec)))


def bracket_triple(kind, t, rng):
    rot = _rotation(rng)
    targets = [_unbiased([t * rot[i][k] for i in range(3)]) for k in range(3)]

    def check(verdict):
        # rotation invariance: compatible iff t <= 1/sqrt(3)
        if verdict == "compatible" and t > T_STAR:
            return f"compatible at t={t!r} > 1/sqrt(3)"
        if verdict == "incompatible" and t < T_STAR:
            return f"incompatible at t={t!r} < 1/sqrt(3)"
        return None

    return Decision(kind, lambda: g.qubit_compatibility_bracket(targets, FACETS).verdict,
                    check, str, label=f"t={t!r} rotation={rot!r}")


def bracket_pair(kind, lo, hi, rng):
    while True:
        a = [rng.uniform(0.3, 1.0) * x for x in _unit(rng)]
        b = [rng.uniform(0.3, 1.0) * x for x in _unit(rng)]
        value = _busch(a, b)
        if lo <= value <= hi:
            break
    targets = [_unbiased(a), _unbiased(b)]

    def check(verdict):
        # Busch: unbiased a, b are compatible iff |a+b| + |a-b| <= 2
        if verdict == "compatible" and value > 2.0:
            return f"compatible with Busch value {value!r} > 2"
        if verdict == "incompatible" and value < 2.0:
            return f"incompatible with Busch value {value!r} < 2"
        return None

    return Decision(kind, lambda: g.qubit_compatibility_bracket(targets, FACETS).verdict,
                    check, str, label=f"a={a!r} b={b!r} busch={value!r}")


def qubit_bracket(seed, rounds):
    out = []
    for r in range(rounds):
        rng = _rng(seed, "qubit", r)
        batch = []
        for kind, count, (lo, hi) in QUBIT_ROUND:
            for _ in range(count):
                if kind.startswith("triple"):
                    batch.append(bracket_triple(kind, rng.uniform(lo, hi), rng))
                else:
                    batch.append(bracket_pair(kind, lo, hi, rng))
        rng.shuffle(batch)
        out += _labelled(batch, r)
    return out


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int], list]   # (seed, rounds) -> decisions
    rounds_per_block: int      # fewest whole rounds with a fixed mix of kinds
    blocks_per_second: float   # closed-loop rate on the reference machine (2 vCPU)


WORKLOADS = {
    "exact-sim": Workload(exact_sim, len(OUTCOMES), 2.4),
    "polygon-float": Workload(polygon_float, POLYGON_BLOCK, 2.1),
    "qubit-bracket": Workload(qubit_bracket, 1, 0.24),
}
