"""JSON and CSV input/output for every public type.

Numbers serialize as strings "p/q" in exact mode and as plain JSON numbers
in float mode. A file must be homogeneous: rational strings and float
literals may not mix (integers are neutral and default to exact). Loaders
enforce this before any object is built.
"""

from __future__ import annotations

import io
import csv
import json
import math
from fractions import Fraction

from .postprocessing import Postprocessing
from .qubit import QubitEffect, QubitSpace
from .scalars import EXACT, FLOAT, ModeError
from .simulation import SIMULABLE, NOT_SIMULABLE, SimulationCertificate
from .spaces import Effect, Observable, StateSpace


def encode_number(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(Fraction(x))
    return float(x)


def encode_vector(v):
    return [encode_number(x) for x in v]


_LABEL_KEYS = {"label", "name", "source", "target", "verdict", "command",
               "ambient_dim", "id"}


def detect_mode(doc) -> str:
    """Scan a parsed JSON document and classify its numbers.

    Values under label-like keys are never numbers; everywhere else a
    rational string marks exact mode and a float literal marks float mode.
    """
    saw_exact = saw_float = False

    def walk(node):
        nonlocal saw_exact, saw_float
        if isinstance(node, dict):
            for k, v in node.items():
                if k in _LABEL_KEYS:
                    continue
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, bool):
            pass
        elif isinstance(node, float):
            saw_float = True
        elif isinstance(node, str):
            if _looks_rational(node):
                saw_exact = True

    walk(doc)
    if saw_exact and saw_float:
        raise ModeError("file mixes rational strings with float literals")
    return FLOAT if saw_float else EXACT


def _looks_rational(s: str) -> bool:
    try:
        Fraction(s)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def decode_number(x, mode: str):
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ModeError(f"{x!r} is not a number")
    if isinstance(x, float) and not math.isfinite(x):
        raise ModeError(f"{x!r} is not a finite number")
    if mode == EXACT:
        if isinstance(x, float):
            raise ModeError(f"float literal {x!r} in an exact-mode file")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ModeError(f"{x!r} has a zero denominator") from None
    if isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:  # an int beyond the largest float
            raise ModeError(f"{x!r} is too large for a float") from None
    raise ModeError(f"rational string {x!r} in a float-mode file")


def decode_vector(v, mode: str):
    return tuple(decode_number(x, mode) for x in v)


# -- state spaces -----------------------------------------------------------

def space_to_json(space: StateSpace) -> dict:
    return {
        "name": space.name,
        "ambient_dim": space.ambient_dim,
        "unit": encode_vector(space.unit),
        "extreme_states": [encode_vector(s) for s in space.extreme_states],
    }


def space_from_json(doc: dict, mode=None) -> StateSpace:
    doc = _object(doc, "a state space")
    mode = mode or detect_mode(doc)
    if not isinstance(doc["ambient_dim"], (int, str)):
        raise ValueError("space field 'ambient_dim' must be an integer")
    states = _listed(doc["extreme_states"], "space field 'extreme_states'")
    return StateSpace(
        name=str(doc["name"]),
        ambient_dim=int(doc["ambient_dim"]),
        extreme_states=tuple(_numbers(s, mode, f"space field 'extreme_states[{k}]'")
                             for k, s in enumerate(states)),
        unit=_numbers(doc["unit"], mode, "space field 'unit'"),
    )


# -- observables ------------------------------------------------------------

def observable_to_json(obs: Observable) -> dict:
    return {"outcomes": [{"label": lab, "coeffs": encode_vector(eff.coeffs)}
                         for lab, eff in obs.outcomes]}


def observable_from_json(doc: dict, space: StateSpace = None, mode=None) -> Observable:
    mode = mode or detect_mode(doc)
    outcomes = [(at, o["label"], _numbers(o["coeffs"], mode, f"observable field '{at}.coeffs'"))
                for at, o in _outcomes(doc)]
    dim = len(outcomes[0][2]) if space is None else space.ambient_dim
    for at, _, coeffs in outcomes:
        if len(coeffs) != dim:
            raise ValueError(f"observable field '{at}.coeffs' must have {dim} entries")
    return Observable(tuple((label, Effect(coeffs)) for _, label, coeffs in outcomes), space)


def qubit_observable_to_json(obs: Observable) -> dict:
    """The display form: bias e0 = 2 tau - 1 and Bloch vector e of each
    effect (ex, ey, ez, tau)."""
    return {"outcomes": [{"label": lab, "e0": encode_number(2 * eff.coeffs[3] - 1),
                          "e": encode_vector(eff.coeffs[:3])}
                         for lab, eff in obs.outcomes]}


def qubit_observable_from_json(doc: dict, mode=None) -> Observable:
    mode = mode or detect_mode(doc)
    return Observable(tuple(
        (o["label"], QubitEffect(decode_number(o["e0"], mode),
                                 _numbers(o["e"], mode, f"observable field '{at}.e'")))
        for at, o in _outcomes(doc)), QubitSpace())


def _outcomes(doc) -> list:
    """(field name, object) of each outcome of an observable document."""
    outcomes = _listed(_object(doc, "an observable")["outcomes"], "observable field 'outcomes'")
    if not outcomes:
        raise ValueError("observable field 'outcomes' must be nonempty")
    return [(f"outcomes[{k}]", _object(o, f"observable field 'outcomes[{k}]'"))
            for k, o in enumerate(outcomes)]


# -- channels and certificates ----------------------------------------------

def postprocessing_to_json(channel: Postprocessing) -> dict:
    return {"source": list(channel.source), "target": list(channel.target),
            "matrix": [encode_vector(r) for r in channel.matrix]}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    return value


def _listed(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _numbers(value, mode: str, what: str):
    if not all(isinstance(x, (int, float, str)) for x in _listed(value, what)):
        raise ValueError(f"{what} must be a list of numbers")
    return decode_vector(value, mode)


def postprocessing_from_json(doc: dict, mode=None, name: str = "") -> Postprocessing:
    """Decode a channel; a malformed field raises ValueError naming it.

    `name` is the channel's place in an enclosing certificate, such as
    ``channels[0]``; the errors then name certificate fields.
    """
    kind, path = ("certificate", name + ".") if name else ("postprocessing", "")

    def field(key: str) -> str:
        return f"{kind} field {path + key!r}"

    _object(doc, f"{kind} field {name!r}" if name else "a postprocessing")
    mode = mode or detect_mode(doc)
    matrix = _listed(doc["matrix"], field("matrix"))
    return Postprocessing(
        tuple(_listed(doc["source"], field("source"))),
        tuple(_listed(doc["target"], field("target"))),
        tuple(_numbers(row, mode, field(f"matrix[{i}]")) for i, row in enumerate(matrix)))


def certificate_to_json(cert: SimulationCertificate) -> dict:
    if cert.simulable:
        return {"verdict": SIMULABLE,
                "weights": encode_vector(cert.weights),
                "channels": [postprocessing_to_json(c) for c in cert.channels]}
    return {"verdict": NOT_SIMULABLE, "farkas": encode_vector(cert.farkas)}


def certificate_from_json(doc: dict, mode=None) -> SimulationCertificate:
    """Decode a certificate; a malformed field raises ValueError naming it."""
    doc = _object(doc, "a certificate")
    mode = mode or detect_mode(doc)
    if doc["verdict"] not in (SIMULABLE, NOT_SIMULABLE):
        raise ValueError("certificate field 'verdict' must be 'simulable' or 'not_simulable'")
    if doc["verdict"] == NOT_SIMULABLE:
        return SimulationCertificate(
            NOT_SIMULABLE, farkas=_numbers(doc["farkas"], mode, "certificate field 'farkas'"))
    weights = _numbers(doc["weights"], mode, "certificate field 'weights'")
    channels = _listed(doc["channels"], "certificate field 'channels'")
    return SimulationCertificate.from_scheme(weights, [
        postprocessing_from_json(c, mode, f"channels[{k}]") for k, c in enumerate(channels)])


# -- file-level loaders ------------------------------------------------------

def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text


def load_observables(path, space: StateSpace = None):
    """Load one observable or a list from a file.

    Accepts a bare observable document, {"observables": [...]}, or either
    with an embedded {"space": ...}; report envelopes are unwrapped through
    their "payload" key. Qubit documents (with e0 fields) are read over
    `QubitSpace`. Returns (observables, space).
    """
    doc = _object(load_json(path), f"{path}: the document")
    if "payload" in doc and isinstance(doc["payload"], dict):
        doc = doc["payload"]
    mode = detect_mode(doc)
    if "space" in doc and doc["space"] is not None:
        space = space_from_json(doc["space"], mode)
    docs = _listed(doc["observables"], "field 'observables'") if "observables" in doc \
        else [doc] if "outcomes" in doc else []
    if not docs:
        raise ValueError(f"{path}: no observables found")
    first = _outcomes(docs[0])
    if first and "e0" in first[0][1]:
        return [qubit_observable_from_json(d, mode) for d in docs], QubitSpace()
    return [observable_from_json(d, space, mode) for d in docs], space


def load_space(path) -> StateSpace:
    doc = _object(load_json(path), f"{path}: the document")
    if "payload" in doc and isinstance(doc["payload"], dict):
        doc = doc["payload"]
    if "space" in doc and isinstance(doc["space"], dict):
        doc = doc["space"]
    return space_from_json(doc)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
