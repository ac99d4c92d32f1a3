"""JSON round-trips, mode detection, and homogeneity enforcement."""

import json
import re
from fractions import Fraction

import pytest

from gptsim.postprocessing import Postprocessing, is_postprocessing_of, replay_relation
from gptsim.scalars import EXACT, FLOAT, ModeError
from gptsim.serialize import (
    certificate_from_json,
    certificate_to_json,
    decode_number,
    detect_mode,
    load_observables,
    load_space,
    observable_from_json,
    observable_to_json,
    postprocessing_from_json,
    postprocessing_to_json,
    qubit_observable_from_json,
    qubit_observable_to_json,
    space_from_json,
    space_to_json,
    dump_json,
)
from gptsim.simulation import is_simulable, replay_simulation
from gptsim.spaces import trivial_observable

F = Fraction


def test_space_roundtrip_exact(sq):
    doc = space_to_json(sq.space)
    back = space_from_json(json.loads(json.dumps(doc)))
    assert back == sq.space
    assert back.mode == EXACT


def test_space_roundtrip_float(hexagon):
    doc = space_to_json(hexagon.space)
    back = space_from_json(json.loads(json.dumps(doc)))
    assert back.mode == FLOAT
    assert max(abs(a - b)
               for s, t in zip(back.extreme_states, hexagon.space.extreme_states)
               for a, b in zip(s, t)) == 0


def test_observable_roundtrip(sq):
    doc = observable_to_json(sq.E)
    back = observable_from_json(doc, sq.space)
    assert back == sq.E


def test_numeric_labels_do_not_flip_mode(hexagon):
    from gptsim.catalog import polygon_irreducibles

    obs = polygon_irreducibles(6).observables[-1]  # labels "1", "2", "3"
    doc = observable_to_json(obs)
    assert detect_mode(doc) == FLOAT


def test_qubit_observable_roundtrip(suite):
    doc = qubit_observable_to_json(suite.X)
    back = qubit_observable_from_json(doc)
    assert back == suite.X
    tetra = qubit_observable_from_json(
        json.loads(json.dumps(qubit_observable_to_json(suite.tetrahedron))))
    assert tetra.is_valid()


def test_postprocessing_roundtrip():
    chan = Postprocessing(("a", "b"), ("x",), ((F(1),), (F(1),)))
    back = postprocessing_from_json(postprocessing_to_json(chan))
    assert back == chan


@pytest.mark.parametrize("key, value, field", [
    ("matrix", None, "matrix"),
    ("matrix", [None], "matrix[0]"),
    ("source", None, "source"),
])
def test_postprocessing_from_json_names_malformed_field(key, value, field):
    doc = postprocessing_to_json(Postprocessing(("a", "b"), ("x",), ((F(1),), (F(1),))))
    doc[key] = value
    with pytest.raises(ValueError, match=re.escape(f"postprocessing field '{field}' must be")):
        postprocessing_from_json(doc)
    with pytest.raises(ValueError, match="must be an object"):
        postprocessing_from_json(None)


def test_certificate_roundtrip(sq):
    cert = is_simulable(sq.E, [sq.E, sq.F])
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert replay_simulation(back, sq.E, [sq.E, sq.F])
    bad = is_simulable(sq.E, [sq.F])
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(bad))))
    assert not back.simulable
    assert replay_simulation(back, sq.E, [sq.F])


def test_relation_certificate_roundtrip(sq):
    # a relation certificate is a simulation certificate, so it stores and
    # replays like one
    coin = trivial_observable(sq.space, [("h", F(1, 3)), ("t", F(2, 3))])
    for target, source, related in ((coin, sq.E, True), (sq.E, sq.F, False)):
        cert = is_postprocessing_of(target, source)
        assert cert.simulable == related
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert back == cert
        assert replay_relation(back, target, source)


def test_observable_without_space_takes_the_first_length():
    # with a space the length is its ambient_dim (test_cli's malformed cases)
    doc = {"outcomes": [{"label": "a", "coeffs": ["1/2", "1/2"]},
                        {"label": "b", "coeffs": ["1/2", "1/2", "0"]}]}
    with pytest.raises(ValueError, match=re.escape("'outcomes[1].coeffs' must have 2 entries")):
        observable_from_json(doc)


def test_mixed_mode_rejected():
    doc = {"outcomes": [{"label": "a", "coeffs": ["1/2", 0.5]}]}
    with pytest.raises(ModeError):
        observable_from_json(doc)


def test_float_file_rejects_rational_strings():
    doc = {"outcomes": [{"label": "a", "coeffs": [0.5, "1/2"]}]}
    with pytest.raises(ModeError):
        observable_from_json(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_decode_number_rejects_non_finite_floats(value):
    with pytest.raises(ModeError, match=f"{value!r} is not a finite number"):
        decode_number(value, FLOAT)
    with pytest.raises(ModeError):
        observable_from_json({"outcomes": [{"label": "a", "coeffs": [value, 0.5]}]})


def test_decode_number_rejects_ints_too_large_for_a_float():
    with pytest.raises(ModeError, match=r"^10{400} is too large for a float$"):
        decode_number(10 ** 400, FLOAT)
    with pytest.raises(ModeError, match="is too large for a float"):
        observable_from_json({"outcomes": [{"label": "a", "coeffs": [-10 ** 400, 0.5]}]})
    assert decode_number(10 ** 300, FLOAT) == 1e300
    assert decode_number(10 ** 400, EXACT) == 10 ** 400


def test_load_observables_group(tmp_path, sq):
    path = tmp_path / "obs.json"
    doc = {"space": space_to_json(sq.space),
           "observables": [observable_to_json(sq.E), observable_to_json(sq.F)]}
    path.write_text(dump_json(doc))
    loaded, space, is_qubit = load_observables(str(path))
    assert not is_qubit
    assert space == sq.space
    assert len(loaded) == 2
    assert loaded[0].effects == sq.E.effects


def test_load_space_from_envelope(tmp_path, sq):
    path = tmp_path / "env.json"
    path.write_text(dump_json({"payload": {"space": space_to_json(sq.space)}}))
    assert load_space(str(path)) == sq.space
