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
holds its numbers, the quotient of two numbers over one scale (`ratio`:
one Fraction of two integers, or a float division), the zero test and the
dedup key.

Code outside this module branches on the mode only where the two modes run
different algorithms or read outside input: the backend choice in
`lp.lp_solve`, by the field of the program, which it solves in no other, a
program's stored form (`lp.LinearProgram`: float arrays, or integer rows
over their denominators), `lp._cleared`'s data form for the verifiers,
the program's own (the float arrays the float kernel reads, or the integer
rows the exact kernel reads, with the certificate cleared), the float-only
replay in `lp._simplex` (an exact solution is the kernel's Fractions as
they are), the exact clearing of each effect row in
`simulation.simulation_program`, which places both fields' rows in one
layout, the float-only test of a float scheme, solved or read from the
simulation-set store, on every row of the full layout
(`simulation._scheme_holds`, which a replay runs in both modes), the one
store loop of every answer store (`lp.Answers`): the float or integer
B^-1 it keeps as its LP left it (`LPOutcome.inverse`, so no store clears
or inverts a basis of its own), the basic values it reads from it
(Fractions over each basis row's denominator in exact mode, made only in
the rows whose basic column is structural), the start it names for a miss
(none in exact mode) and its scan's float warnings, silenced for an inf or
a NaN b, the integer products of an exact effect with a polytope's extreme
states against the float array of them (`spaces.StateSpace.least_values`,
`prices`, `is_extremal`), the exact Bloch norms of qubit effects against
one float array of them (`qubit.QubitSpace._norms`, `least_values`),
`serialize.decode_number` and the command line's `--mode`.

The one clearing of numbers to integers lives here: `integer_row`
(rationals over their least common denominator), `scaled` (a field's
numbers over one scale D, floats over D = 1), `joined` (rows of Python
numbers already over scales of their own, as (rows, D) pairs, brought over
one scale without clearing them again) and `cleared` (each part over its
own lcm, then joined, as arrays), so one test against eps reads both modes
and every definition check clears through them. An observable clears its
effects once, on first read, to its cleared form
(`spaces.Observable.cleared_rows`, one (rows, D) pair of Python numbers,
and its column sums `cleared_sum`): the simulation-set store's b, the
effect-sum test, the scheme test, both simulation replays and the noise
content join those pairs instead of clearing the effects again, and clear
only a certificate's numbers (`scaled`). Those tests and the noise content
run on the Python numbers, ints in exact mode, with no array arithmetic,
and make a Fraction only for a number they return (`Field.ratio`).

The tests of an LP certificate are written once, here, on arrays over one
scale (integers with eps 0, or floats): `satisfies` (A x = b and x >= 0,
within eps) and `refutes` (y'A <= eps and y.b > eps, Farkas). The LP
verifiers, the simplex driver's replays and the conic refutation replay
(`geometry.replay_conic`) call them, so that a change of the test, such as
its float bound, is made in one place.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def require_dim(rows, dim: int):
    """ValueError unless every vector of `rows` (a sequence of coefficient
    vectors, or a 2-d array) has dim entries."""
    wrong = ({rows.shape[1]} if isinstance(rows, np.ndarray) else set(map(len, rows))) - {dim}
    if wrong:
        raise ValueError(f"dimension mismatch {min(wrong)} vs {dim}")


def rows_kind(rows, dim: int) -> Optional[str]:
    """The kind (`kind_of`) of a sequence of coefficient vectors of dim
    entries each (`require_dim`), FLOAT at once for a float array."""
    require_dim(rows, dim)
    if getattr(rows, "dtype", None) == float:
        return FLOAT
    return kind_of(itertools.chain.from_iterable(rows))


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
    ratio: Callable  # n / d as the field's number: Fraction(n, d) of integers, or n / d

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
        made = Field(EXACT, tol, Fraction(0), Fraction(1), 0, Fraction, _rational_sqrt, object,
                     Fraction)
    elif mode == FLOAT:
        made = Field(FLOAT, tol, 0.0, 1.0, tol.eps, float, math.sqrt, float, operator.truediv)
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
    """(values, D) for one scale D > 0, as a list of Python numbers:
    integers over their lcm (`integer_row`) in exact mode, where eps is 0,
    and the values as Python floats over D = 1 in float mode (`float` of a
    Python float is that float; a numpy scalar, whose arithmetic would warn
    on an inf or a NaN, becomes one)."""
    return (list(map(float, values)), 1) if F.mode == FLOAT else integer_row(values)


def joined(F: Field, *parts) -> tuple:
    """Each part, a pair (rows, D) of Python numbers over the scale D > 0 (a
    sequence of rows, as `spaces.Observable.cleared_rows` gives it), over
    the one scale L of them all, then L: in exact mode, where every D
    clears its numbers to integers, L is the lcm of the Ds and each integer
    is multiplied by L // D, in new lists of rows (rows already over L are
    the part's own); in float mode L = 1 and every part is its own. No
    array is made."""
    L = 1 if F.mode == FLOAT else math.lcm(*(D for _, D in parts))
    return (*(rows if D == L else [[x * (L // D) for x in row] for row in rows]
              for rows, D in parts), L)


def cleared(F: Field, *parts) -> tuple:
    """Each part (a sequence of numbers) as an array of `F.dtype`, then the
    one scale D of all parts together: in exact mode each part cleared over
    its own lcm (`integer_row`), then all brought over the lcm of those
    (multiplied as Python ints, before the array is made), which gives the
    numerators over the lcm of every denominator; in float mode D = 1 and
    each part is only converted (a float array is itself)."""
    if F.mode == FLOAT:
        return (*(np.asarray(part, dtype=float) for part in parts), 1)
    *rows, D = joined(F, *(([nums], den) for nums, den in map(integer_row, parts)))
    return (*(np.array(row, dtype=object) for (row,) in rows), D)


def satisfies(A, x, b, eps) -> bool:
    """A x = b within eps in each row and x >= -eps in each entry: the one
    solution test of an LP certificate, for arrays over one scale (integers
    with eps 0, or floats, as `cleared` gives them); an inf or a NaN fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool((abs(A @ x - b) <= eps).all() and (x >= -eps).all())


def refutes(y, A, b, eps) -> bool:
    """y'A <= eps in each entry and y . b > eps: the one refutation test of
    an LP certificate (Farkas), for arrays over one scale as `satisfies`
    reads them; an inf or a NaN in y fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool((abs(y) < np.inf).all() and (y @ A <= eps).all() and y @ b > eps)


def to_float_vector(v: Sequence[Number]) -> Vec:
    return tuple(float(x) for x in v)


def vdot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B.T for two float or two object arrays, each entry summed from
    zero over the coordinates in order, so that it is the number `vdot`
    gives, bit for bit (a BLAS product may sum in another order); an inf or
    a NaN gives no warning."""
    out = np.zeros((len(A), len(B)), dtype=A.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(A.shape[1]):
            out += np.multiply.outer(A[:, d], B[:, d])
    return out


def vscale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)
