"""Named theories and observables: simplices, the square bit, regular
polygons with their complete irreducible catalogs, and the qubit example
suite with the octahedron test and the compatibility bracket, which starts
`simulation.is_compatible` from rank-one qubit effects over a facet count.

Polygon constructions follow the closed forms: state k of the n-gon sits at
sec(pi/n) times the unit direction of angle 2k pi/n on the z = 1 plane; for
even n the nontrivial extreme effects are e_k = (cos((2k-1)pi/n),
sin((2k-1)pi/n), 1) / 2 and antipodal pairs sum to the unit, while for odd n
there are two families f_k and g_k = u - f_k and only the g-rays generate
the positive dual cone. Polygon coordinates are trigonometric, so polygon
work runs in float mode; the square bit and classical simplices get
rational embeddings and exact certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .lp import FEASIBLE, lp_solve, make_program
from .qubit import (
    QubitEffect,
    QubitObservable,
    as_vector_observable,
    dichotomic,
    octahedron_margins,
    sphere_directions,
)
from .scalars import DEFAULT_TOLERANCE, Tolerance, field, vscale
from .simulation import (
    SIMULABLE,
    CompatibilityResult,
    SimulationCertificate,
    is_compatible,
    is_simulable,
)
from .postprocessing import Postprocessing, binarization
from .spaces import Effect, Observable, StateSpace, dual_cone_rays, observable


# ---------------------------------------------------------------------------
# Classical simplices and the square bit (rational embeddings).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalTheory:
    space: StateSpace
    distinguishing: Observable  # reads out the pure state labels


def classical(n: int) -> ClassicalTheory:
    """n distinguishable pure states; the reading observable is G_x(s_k) =
    delta_xk and every observable is one of its postprocessings."""
    if n < 2:
        raise ValueError("classical state spaces need at least 2 pure states")
    dim = n
    states = []
    for k in range(n - 1):
        s = [Fraction(0)] * dim
        s[k] = Fraction(1)
        s[-1] = Fraction(1)
        states.append(tuple(s))
    states.append(tuple([Fraction(0)] * (dim - 1) + [Fraction(1)]))
    unit = tuple([Fraction(0)] * (dim - 1) + [Fraction(1)])
    space = StateSpace(f"classical-{n}", dim, tuple(states), unit)
    effects = []
    for x in range(n - 1):
        e = [Fraction(0)] * dim
        e[x] = Fraction(1)
        effects.append((str(x + 1), tuple(e)))
    last = [Fraction(-1)] * (dim - 1) + [Fraction(1)]
    effects.append((str(n), tuple(last)))
    return ClassicalTheory(space, observable(space, effects))


@dataclass(frozen=True)
class SquareBitTheory:
    space: StateSpace
    E: Observable
    F: Observable


def square_bit() -> SquareBitTheory:
    """Square state space at z = 1 with the two edge-reading observables.

    E is blind to the edge between the first two vertices, F to the edge
    between the first and the last; together they simulate everything.
    """
    half = Fraction(1, 2)
    states = ((1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1))
    states = tuple(tuple(Fraction(x) for x in s) for s in states)
    space = StateSpace("square-bit", 3, states, (Fraction(0), Fraction(0), Fraction(1)))
    e_obs = observable(space, [("+", (Fraction(0), -half, half)),
                               ("-", (Fraction(0), half, half))])
    f_obs = observable(space, [("+", (-half, Fraction(0), half)),
                               ("-", (half, Fraction(0), half))])
    return SquareBitTheory(space, e_obs, f_obs)


# ---------------------------------------------------------------------------
# Regular polygons.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolygonTheory:
    n: int
    space: StateSpace
    extreme_effects: tuple      # even: e_k; odd: the g_k family (dual-cone rays)
    f_effects: Optional[tuple]  # odd only: the upper family f_k = u - g_k
    dichotomic_observables: tuple

    @property
    def even(self) -> bool:
        return self.n % 2 == 0

    @property
    def unit(self) -> tuple:
        return self.space.unit


def polygon(n: int) -> PolygonTheory:
    if n < 3:
        raise ValueError("polygon state spaces need n >= 3")
    sec = 1.0 / math.cos(math.pi / n)
    states = tuple(
        (sec * math.cos(2 * k * math.pi / n), sec * math.sin(2 * k * math.pi / n), 1.0)
        for k in range(1, n + 1))
    unit = (0.0, 0.0, 1.0)
    space = StateSpace(f"polygon-{n}", 3, states, unit)

    def ray_angle(k):
        return (2 * k - 1) * math.pi / n

    if n % 2 == 0:
        effects = tuple(
            (0.5 * math.cos(ray_angle(k)), 0.5 * math.sin(ray_angle(k)), 0.5)
            for k in range(1, n + 1))
        m = n // 2
        dichos = tuple(
            observable(space, [("+", effects[k]), ("-", effects[(k + m) % n])])
            for k in range(m))
        return PolygonTheory(n, space, effects, None, dichos)

    denom = 1.0 + sec
    f_eff = tuple(
        (math.cos(ray_angle(k)) / denom, math.sin(ray_angle(k)) / denom, sec / denom)
        for k in range(1, n + 1))
    g_eff = tuple(
        (-math.cos(ray_angle(k)) / denom, -math.sin(ray_angle(k)) / denom, 1.0 / denom)
        for k in range(1, n + 1))
    dichos = tuple(
        observable(space, [("+", f_eff[k]), ("-", g_eff[k])]) for k in range(n))
    return PolygonTheory(n, space, g_eff, f_eff, dichos)


def irreducible_count_formula(n: int) -> int:
    """Closed-form number of inequivalent simulation-irreducible observables."""
    if n % 2 == 0:
        m = n // 2
        return m + m * (m - 1) * (m - 2) // 3
    m = (n - 1) // 2
    return m * (m + 1) * (2 * m + 1) // 6


@dataclass(frozen=True)
class IrreducibleCatalog:
    theory: PolygonTheory
    observables: tuple
    index_sets: tuple  # ray indices (1-based) per member, parallel list
    dichotomic_count: int
    trichotomic_count: int

    @property
    def count(self) -> int:
        return len(self.observables)


MAX_POLYGON_N = 40


def polygon_irreducibles(n: int, tol: Tolerance = DEFAULT_TOLERANCE) -> IrreducibleCatalog:
    """Enumerate the simulation-irreducible observables of the n-gon.

    Candidates are generated geometrically: for even n the antipodal
    dichotomic pairs plus every ray triple whose coefficients solving
    sum c_j e_kj = u are strictly positive (the coefficient sum is checked
    to be two, as the plane geometry forces); for odd n the ray triples over
    the g family. Unordered index combinations yield one representative per
    relabelling class.
    """
    if not 3 <= n <= MAX_POLYGON_N:
        raise ValueError(f"polygon enumeration supports 3 <= n <= {MAX_POLYGON_N}")
    theory = polygon(n)
    rays = theory.extreme_effects
    unit = np.array(theory.unit)
    members = []
    index_sets = []
    dicho = 0
    if theory.even:
        m = n // 2
        for k in range(1, m + 1):
            obs = observable(theory.space,
                             [("+", rays[k - 1]), ("-", rays[(k - 1 + m) % n])])
            members.append(obs)
            index_sets.append((k, k + m))
            dicho += 1
    eps = tol.eps
    below = np.less.outer(np.arange(n), np.arange(n))
    combos = np.argwhere(below[:, :, None] & below[None]) + 1  # i < j < k, lexicographic
    ray_array = np.array(rays)
    mats = ray_array[combos - 1].transpose(0, 2, 1)  # the rays are columns
    nonsingular = np.abs(np.linalg.det(mats)) > eps
    combos, mats = combos[nonsingular], mats[nonsingular]
    coeffs = np.linalg.solve(mats, np.broadcast_to(unit, (len(mats), 3))[..., None])[..., 0]
    positive = np.all(coeffs > eps, axis=1)
    combos, coeffs = combos[positive], coeffs[positive]
    if theory.even:
        totals = coeffs.sum(axis=1)
        off = np.flatnonzero(np.abs(totals - 2.0) > 1e-7)
        if off.size:
            raise RuntimeError(
                f"even-polygon trichotomic coefficient sum {float(totals[off[0]])} is not 2")
    scaled = (coeffs[:, :, None] * ray_array[combos - 1]).tolist()
    members.extend(Observable((("1", Effect(a)), ("2", Effect(b)), ("3", Effect(c))),
                              theory.space) for a, b, c in scaled)
    index_sets.extend(map(tuple, combos.tolist()))
    return IrreducibleCatalog(theory, tuple(members), tuple(index_sets),
                              dicho, len(members) - dicho)


# ---------------------------------------------------------------------------
# Hexagon noise example.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexagonNoiseExample:
    noise: float
    observable: Observable          # A' = (1 - lambda) A + lambda u/3
    sharp: Observable               # the noiseless trichotomic A
    simulators: tuple               # the three dichotomic witnesses
    certificate: SimulationCertificate


def hexagon_noise_example(noise, tol: Tolerance = DEFAULT_TOLERANCE) -> HexagonNoiseExample:
    """The trichotomic hexagon observable with effects two thirds of rays
    1, 3, 5, mixed with uniform trivial noise, against the three dichotomic
    observables pairing ray 2i-1 with ray 2i+2."""
    if not 0 <= float(noise) <= 1:
        raise ValueError("noise weight must lie in [0, 1]")
    lam = float(noise)
    theory = polygon(6)
    e = theory.extreme_effects
    u = theory.unit
    sharp = observable(theory.space,
                       [(str(j + 1), vscale(2.0 / 3.0, e[2 * j])) for j in range(3)])
    noisy = observable(
        theory.space,
        [(str(j + 1),
          tuple((1.0 - lam) * a + lam / 3.0 * b for a, b in zip(sharp.effects[j].coeffs, u)))
         for j in range(3)])
    sims = tuple(
        observable(theory.space,
                   [("+", e[(2 * i + 1) - 1]), ("-", e[(2 * i + 4) % 6 - 1])])
        for i in range(3))
    cert = is_simulable(noisy, list(sims), tol)
    return HexagonNoiseExample(lam, noisy, sharp, sims, cert)


def hexagon_explicit_certificate() -> SimulationCertificate:
    """The closed-form certificate at noise one quarter: uniform weights and
    channels keeping outcome i on plus and spreading minus over the other
    two outcomes evenly."""
    third = 1.0 / 3.0
    channels = []
    target = ("1", "2", "3")
    for i in range(3):
        plus_row = tuple(1.0 if i == k else 0.0 for k in range(3))
        minus_row = tuple(0.0 if i == k else 0.5 for k in range(3))
        channels.append(Postprocessing(("+", "-"), target, (plus_row, minus_row)))
    return SimulationCertificate(SIMULABLE, weights=(third, third, third),
                                 channels=tuple(channels))


# ---------------------------------------------------------------------------
# Qubit suite.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitSuite:
    """The named qubit observables used throughout the examples."""

    X: QubitObservable
    Y: QubitObservable
    Z: QubitObservable
    T: QubitObservable              # trivial: identity and zero
    tetrahedron: QubitObservable    # four rank-one effects at tetrahedron vertices

    def xt(self, t) -> QubitObservable:
        return dichotomic("+", "-", QubitEffect(0.0, (float(t), 0.0, 0.0)))

    def yt(self, t) -> QubitObservable:
        return dichotomic("+", "-", QubitEffect(0.0, (0.0, float(t), 0.0)))

    def zt(self, t) -> QubitObservable:
        return dichotomic("+", "-", QubitEffect(0.0, (0.0, 0.0, float(t))))

    def ct(self, t) -> QubitObservable:
        """Diagonal observable between X and Y, with Bloch length t."""
        a = float(t) / math.sqrt(2.0)
        return dichotomic("+", "-", QubitEffect(0.0, (a, a, 0.0)))

    def tetra_dichotomic(self) -> QubitObservable:
        """Merge of the tetrahedron into its first-two vs last-two outcomes."""
        b = TETRAHEDRON_BLOCH
        e_plus = tuple((b[0][i] + b[1][i]) / 2.0 for i in range(3))
        return dichotomic("+", "-", QubitEffect(0.0, e_plus))


TETRAHEDRON_BLOCH = (
    (2.0 * math.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0),
    (-math.sqrt(2.0) / 3.0, math.sqrt(2.0 / 3.0), -1.0 / 3.0),
    (-math.sqrt(2.0) / 3.0, -math.sqrt(2.0 / 3.0), -1.0 / 3.0),
    (0.0, 0.0, 1.0),
)


def qubit_suite() -> QubitSuite:
    x = dichotomic("+", "-", QubitEffect(0, (1, 0, 0)))
    y = dichotomic("+", "-", QubitEffect(0, (0, 1, 0)))
    z = dichotomic("+", "-", QubitEffect(0, (0, 0, 1)))
    t = QubitObservable((("+", QubitEffect(1, (0, 0, 0))),
                         ("-", QubitEffect(-1, (0, 0, 0)))))
    tetra = QubitObservable(tuple(
        (str(i + 1), QubitEffect(-0.5, tuple(c / 2.0 for c in TETRAHEDRON_BLOCH[i])))
        for i in range(4)))
    return QubitSuite(x, y, z, t, tetra)


def tetrahedron_rational() -> dict:
    """Exact-coordinate twin of the tetrahedron example.

    Rescaling the x axis by the square root of two and the y axis by the
    square root of six is an invertible linear change of effect coordinates,
    so simulability, postprocessing, and hull verdicts are unchanged while
    every coordinate becomes rational. Rank-one-ness transfers to the
    weighted norm 2 ex^2 + 6 ey^2 + ez^2 = (2 tau)^2.

    Returns vector observables 'B', 'A' (the two-outcome merge), the four
    binarizations 'C1'..'C4', and the trichotomic merges 'D1', 'D2', plus
    the display-coordinate hull data under 'hull_point' / 'hull_generators'.
    """
    third = Fraction(1, 3)
    b = ((2 * third, Fraction(0), -third),
         (-third, third, -third),
         (-third, -third, -third),
         (Fraction(0), Fraction(0), Fraction(1)))
    quarter = Fraction(1, 4)
    b_effects = [tuple(x / 2 for x in bi) + (quarter,) for bi in b]

    def plus(a, c):
        return tuple(x + y for x, y in zip(a, c))

    B = observable(None, [(str(i + 1), b_effects[i]) for i in range(4)])
    A = observable(None, [("+", plus(b_effects[0], b_effects[1])),
                          ("-", plus(b_effects[2], b_effects[3]))])
    cs = {f"C{i}": binarization(B, str(i)) for i in range(1, 5)}
    d1 = observable(None, [("1", b_effects[0]), ("2", b_effects[1]),
                           ("3", plus(b_effects[2], b_effects[3]))])
    d2 = observable(None, [("1", b_effects[2]), ("2", b_effects[3]),
                           ("3", plus(b_effects[0], b_effects[1]))])

    half = Fraction(1, 2)
    hull_gens = [(-half,) + tuple(x / 2 for x in bi) for bi in b]
    hull_gens += [(Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),
                  (Fraction(1), Fraction(0), Fraction(0), Fraction(0))]
    hull_point = (Fraction(0),) + tuple((b[0][i] + b[1][i]) / 2 for i in range(3))
    return {"B": B, "A": A, **cs, "D1": d1, "D2": d2,
            "hull_point": hull_point, "hull_generators": tuple(hull_gens)}


def octahedron_test(obs: QubitObservable,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    """Per-effect test |e0| + ||e||_1 <= 1.

    Passing for every outcome is equivalent to simulability from the three
    sharp orthogonal dichotomic observables; for unbiased effects the
    passing set is the octahedron inscribed in the Bloch ball.
    """
    eps = field(obs.mode, tol).eps
    return {lab: val <= 1 + eps for lab, val in octahedron_margins(obs).items()}


# ---------------------------------------------------------------------------
# Qubit joint measurability: `simulation.is_compatible` from a chosen set of
# rank-one effects.
# ---------------------------------------------------------------------------

def qubit_compatibility_bracket(targets: Sequence[QubitObservable], facets: int = 128,
                                tol: Tolerance = DEFAULT_TOLERANCE) -> CompatibilityResult:
    """Joint-measurability decision for dichotomic qubit targets, in float
    arithmetic: `is_compatible` started from the rank-one effects (d, 1/2)
    over `sphere_directions(facets)` plus the targets' own Bloch directions
    (so exact reconstructions, such as a target and its postprocessing, stay
    feasible at any facet count)."""
    targets = list(targets)
    if any(len(t.outcomes) != 2 for t in targets):
        raise ValueError("the bracket accepts dichotomic targets only")
    vectors = [as_vector_observable(t).as_float() for t in targets]
    dirs = list(sphere_directions(facets))
    for eff in (e for v in vectors for e in v.effects):
        norm = math.sqrt(sum(x ** 2 for x in eff.coeffs[:3]))
        if norm > 1e-12:
            dirs.append(tuple(x / norm for x in eff.coeffs[:3]))
    return is_compatible(vectors, tol, generators=[(*d, 0.5) for d in dirs])


def xyz_threshold_bracket(facets: int = 128, t_tol: float = 1e-3,
                          tol: Tolerance = DEFAULT_TOLERANCE) -> tuple:
    """Bisection bracket for the largest noise level at which the orthogonal
    triple stays compatible. Returns (lower, upper): compatible at the lower
    value, incompatible at the upper value. An undecided verdict stops the
    bisection, so the returned bracket then straddles the undecided value."""
    if not t_tol > 0:  # NaN too, which would end the bisection at once
        raise ValueError("t_tol must be positive")
    suite = qubit_suite()
    a, b = 0.0, 1.0
    while b - a > t_tol:
        mid = 0.5 * (a + b)
        res = qubit_compatibility_bracket(
            [suite.xt(mid), suite.yt(mid), suite.zt(mid)], facets, tol)
        if res.verdict == "undecided":
            break
        if res.compatible:
            a = mid
        else:
            b = mid
    return a, b


# ---------------------------------------------------------------------------
# Seeded random observables over polytopic theories.
# ---------------------------------------------------------------------------

def random_observable(space: StateSpace, rng, n_outcomes: Optional[int] = None,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> Observable:
    """Sample a valid observable by splitting a conic decomposition of u.

    A random vertex of {c >= 0 : sum_r c_r ray_r = u} is picked by
    maximizing a random objective, then each ray's weight is divided over
    the outcomes with random integer proportions. The construction is exact
    in exact mode and identical in structure across modes, so seeded corpora
    can be replayed in either arithmetic.
    """
    F = field(space.mode, tol)
    k = n_outcomes if n_outcomes is not None else rng.randint(2, 5)
    rays = dual_cone_rays(space, tol)
    R = len(rays)
    dim = space.ambient_dim
    obj = tuple(F.coerce(rng.randint(1, 1000)) for _ in range(R))
    rows = [tuple(r[d] for r in rays) for d in range(dim)]
    out = lp_solve(make_program(rows=rows, rhs=space.unit, objective=obj),
                   mode=F.mode, tol=tol)
    if out.verdict != FEASIBLE:
        raise RuntimeError("the unit always decomposes over the dual rays")
    c = out.solution
    effects = [[F.zero] * dim for _ in range(k)]
    for r_i, ray in enumerate(rays):
        if c[r_i] == 0:
            continue
        weights = [rng.randint(0, 9) for _ in range(k)]
        if sum(weights) == 0:
            weights[rng.randrange(k)] = 1
        total = sum(weights)
        for x in range(k):
            if weights[x] == 0:
                continue
            share = c[r_i] * (F.coerce(weights[x]) / total)
            for d in range(dim):
                effects[x][d] += share * ray[d]
    return observable(space, [(str(x + 1), tuple(effects[x])) for x in range(k)])
