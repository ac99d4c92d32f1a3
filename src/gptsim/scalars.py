"""Scalar arithmetic: exact rationals or tolerance-based floats, as one field.

Every computation in this package runs in one of two modes. In exact mode
numbers are `fractions.Fraction` and every comparison is exact. In float
mode numbers are Python floats and comparisons use a `Tolerance`.

Data has a kind: EXACT when a Fraction occurs in it, FLOAT when a float
does, and None when it holds integers only. Integers are mode-neutral: they
join either mode. Fraction mixed with float raises `ModeError`, whether the
two meet inside one input or across the inputs of one call. Objects scan
their data once, lazily, and each public function resolves one `Field` per
call from the kinds of its inputs (`resolve`) or from a given mode
(`field`). The field carries what the two modes differ in: zero and one,
the one threshold `eps` (0 in exact mode), the coercion of a scalar, the
square root (None when an exact root is irrational), the numpy dtype that
holds its numbers, the zero test and the dedup key.

Code outside this module branches on the mode only where the two modes run
different algorithms or read outside input: the backend choice in
`lp.lp_solve`, the exact and float replays in `lp.verify_solution` and
`lp.verify_farkas`, the float-only replay in `lp._simplex` (an exact
solution is the kernel's Fractions as they are), the float-array versus
exact-tuple layout of `simulation.simulation_program` (whose exact branch
also fills the program's cleared rows), the effect-sum guard
`simulation._sums_agree` (exact equality, or eps in each coordinate), the
float-only tests of a float answer on the rows its program leaves out
(`_matches_target` in `simulation.is_simulable`, `_last_marginals_hold` in
`simulation.is_compatible`) and of a scheme read from the simulation-set
store on every row (an exact one is built as Fractions over each basis
row's denominator), the integer products of an exact effect with a
polytope's extreme states against the float array of them
(`spaces.StateSpace.min_value`, `is_extremal`),
`serialize.decode_number` and the command line's `--mode`. The one clearing
of numbers to integers lives here: `integer_row` (rationals over their
least common denominator), and `scaled` and `cleared` (a field's numbers
over one scale D, floats over D = 1), so one test against eps reads both
modes and every definition check clears through them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

EXACT = "exact"
FLOAT = "float"

Number = Fraction | float | int
Vec = tuple


class ModeError(TypeError):
    """Raised when exact and float numbers are mixed in one input."""


@dataclass(frozen=True)
class Tolerance:
    """The float-mode threshold: a magnitude at most eps counts as zero, in
    pivot and rank decisions, certificate residuals and value comparisons."""

    eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be strictly positive and finite")


DEFAULT_TOLERANCE = Tolerance()


def kind_of(values: Iterable) -> Optional[str]:
    """EXACT if a Fraction occurs, FLOAT if a float does, None for integers only.

    Mixing Fraction and float raises ModeError.
    """
    saw_fraction = False
    saw_float = False
    for v in values:
        if isinstance(v, bool):
            raise ModeError("booleans are not scalars")
        # Fraction last: for any other type its check is a slow ABC lookup.
        if isinstance(v, float):
            saw_float = True
        elif isinstance(v, int):
            pass
        elif isinstance(v, Fraction):
            saw_fraction = True
        else:
            raise ModeError(f"unsupported scalar type {type(v).__name__}")
    if saw_fraction and saw_float:
        raise ModeError("mixed exact/float arithmetic is forbidden")
    return FLOAT if saw_float else EXACT if saw_fraction else None


def infer_mode(values: Iterable) -> str:
    """Classify a flat iterable of numbers as exact or float.

    Integers are mode-neutral and count as exact unless a float appears.
    Mixing Fraction and float raises ModeError.
    """
    return kind_of(values) or EXACT


@dataclass(frozen=True)
class Field:
    """The arithmetic of one (mode, Tolerance) pair; obtain it from `field`.

    In exact mode eps is 0 and every comparison below is exact.
    """

    mode: str
    tol: Tolerance
    zero: Number
    one: Number
    eps: float
    coerce: Callable
    sqrt: Callable
    dtype: type  # float, or object for Fractions

    def is_zero(self, vector: Sequence) -> bool:
        """Every entry within eps of zero."""
        eps = self.eps
        return all(abs(x) <= eps for x in vector)

    def key(self, vector: Sequence) -> tuple:
        """Dedup key: the vector itself, or in float mode its eps grid cell."""
        if self.mode == EXACT:
            return tuple(vector)
        grid = 1.0 / self.eps
        return tuple(round(x * grid) for x in vector)


_FIELDS = {}


def field(mode: str, tol: Tolerance = DEFAULT_TOLERANCE) -> Field:
    """The field of a mode and tolerance; the same object for the same pair."""
    found = _FIELDS.get((mode, tol))
    if found is not None:
        return found
    if mode == EXACT:
        made = Field(EXACT, tol, Fraction(0), Fraction(1), 0, Fraction, _rational_sqrt, object)
    elif mode == FLOAT:
        made = Field(FLOAT, tol, 0.0, 1.0, tol.eps, float, math.sqrt, float)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _FIELDS.setdefault((mode, tol), made)


def _rational_sqrt(q) -> Optional[Fraction]:
    """The rational square root of q, or None when it is irrational."""
    q = Fraction(q)
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def resolve(kinds: Iterable[Optional[str]], tol: Tolerance = DEFAULT_TOLERANCE) -> Field:
    """The field for inputs of the given kinds (see `kind_of`).

    Integer-only inputs (None) join either mode; FLOAT wins over them;
    EXACT together with FLOAT raises ModeError.
    """
    saw = set(kinds)
    if EXACT in saw and FLOAT in saw:
        raise ModeError("mixed exact/float arithmetic is forbidden")
    return field(FLOAT if FLOAT in saw else EXACT, tol)


def integer_row(values) -> tuple:
    """Numerators of the values over their least common denominator, as
    (list of ints, positive int); a float value raises ValueError."""
    try:
        dens = [x.denominator for x in values]
    except AttributeError:
        raise ValueError("exact mode requested for float data") from None
    den = math.lcm(*dens)
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator if d == den else x.numerator * (den // d)
            for x, d in zip(values, dens)], den


def scaled(F: Field, values: Sequence) -> tuple:
    """(values, D) for one scale D > 0: integers over their lcm (`integer_row`)
    in exact mode, where eps is 0, and the values over D = 1 in float mode."""
    return (values, 1) if F.mode == FLOAT else integer_row(values)


def cleared(F: Field, *parts) -> tuple:
    """Each part (a sequence of numbers) as an array of `F.dtype`, then the
    one scale D of all parts together (`scaled`)."""
    values, D = scaled(F, [x for part in parts for x in part])
    array, ends = np.array(values, dtype=F.dtype), [0, *itertools.accumulate(map(len, parts))]
    return (*(array[a:b] for a, b in zip(ends, ends[1:])), D)


def to_float_vector(v: Sequence[Number]) -> Vec:
    return tuple(float(x) for x in v)


def vdot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)
