"""Command-line behaviour: payload verdicts, exit codes, determinism."""

import json

import pytest

from gptsim.cli import main
from gptsim.serialize import (
    dump_json,
    observable_to_json,
    qubit_observable_to_json,
    space_to_json,
)
from gptsim.catalog import qubit_suite, square_bit
from gptsim.spaces import mix_observables


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout: str) -> dict:
    return json.loads(stdout)["payload"]


@pytest.fixture()
def squarebit_file(tmp_path):
    path = tmp_path / "squarebit.json"
    path.write_text(dump_json(space_to_json(square_bit().space)))
    return str(path)


@pytest.fixture()
def ct08_file(tmp_path):
    path = tmp_path / "ct08.json"
    path.write_text(dump_json(qubit_observable_to_json(qubit_suite().ct(0.8))))
    return str(path)


@pytest.fixture()
def xy_file(tmp_path):
    suite = qubit_suite()
    path = tmp_path / "xy.json"
    path.write_text(dump_json({"observables": [
        qubit_observable_to_json(suite.X), qubit_observable_to_json(suite.Y)]}))
    return str(path)


def test_space_rays_squarebit(capsys, squarebit_file):
    code, out, _ = run_cli(capsys, "space", "rays", squarebit_file)
    assert code == 0
    assert len(payload(out)["rays"]) == 4


def test_space_rays_mode_float_converts(capsys, squarebit_file):
    code, out, _ = run_cli(capsys, "space", "rays", squarebit_file, "--mode", "float")
    assert code == 0
    rays = payload(out)["rays"]
    assert len(rays) == 4
    assert all(isinstance(x, float) for ray in rays for x in ray)
    code, out, _ = run_cli(capsys, "space", "validate", squarebit_file, "--mode", "float")
    assert code == 0 and payload(out)["valid"] is True


def test_space_mode_exact_on_float_space_exit_2(capsys, tmp_path):
    path = tmp_path / "squarebit-float.json"
    path.write_text(dump_json(space_to_json(square_bit().space.as_float())))
    for action in ("rays", "validate"):
        code, _, err = run_cli(capsys, "space", action, str(path), "--mode", "exact")
        assert code == 2
        assert "exact mode requested for float data" in err


@pytest.mark.parametrize("action", ["check", "smin", "noise", "irreducible", "decompose"])
def test_sim_mode_exact_on_float_data_exit_2(capsys, tmp_path, action):
    sq = square_bit()
    e, f = sq.E.as_float(), sq.F.as_float()
    docs = {"space": space_to_json(e.space), "target": observable_to_json(e),
            "group": {"observables": [observable_to_json(e), observable_to_json(f)]}}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dump_json(doc))
    group = {"check": ["--simulators", str(paths["group"])],
             "smin": ["--pool", str(paths["group"])]}.get(action, [])
    code, out, err = run_cli(capsys, "sim", action, "--space", str(paths["space"]),
                             "--target", str(paths["target"]), *group, "--mode", "exact")
    assert code == 2 and out == ""
    assert "exact mode requested for float data" in err


def test_space_rays_eps_inf_exit_2(capsys, squarebit_file):
    code, out, err = run_cli(capsys, "space", "rays", squarebit_file, "--eps", "inf")
    assert code == 2 and out == ""
    assert "input error" in err


def test_space_validate_ok(capsys, squarebit_file):
    code, out, _ = run_cli(capsys, "space", "validate", squarebit_file)
    assert code == 0
    assert payload(out)["valid"] is True


def test_malformed_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "space", "validate", str(bad))
    assert code == 2
    assert "input error" in err


def test_sim_check_ct08_not_simulable(capsys, ct08_file, xy_file):
    code, out, _ = run_cli(capsys, "sim", "check", "--target", ct08_file,
                           "--simulators", xy_file)
    assert code == 0  # verdicts live in the payload, not the exit code
    doc = payload(out)
    assert doc["verdict"] == "not_simulable"
    assert doc["certificate"]["farkas"]
    assert doc["replay"] is True


def test_sim_check_verify_roundtrip(capsys, tmp_path, ct08_file, xy_file):
    code, out, _ = run_cli(capsys, "sim", "check", "--target", ct08_file,
                           "--simulators", xy_file)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload(out)["certificate"]))
    code, out, _ = run_cli(capsys, "sim", "check", "--target", ct08_file,
                           "--simulators", xy_file, "--verify", str(cert_path))
    assert code == 0
    assert payload(out)["verified"] is True


def _square_bit_check(tmp_path, target, simulators) -> list:
    """`sim check` arguments for a target and simulators on the square bit."""
    docs = {"space": space_to_json(square_bit().space), "target": observable_to_json(target),
            "simulators": {"observables": [observable_to_json(s) for s in simulators]}}
    args = ["sim", "check"]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(doc))
        args += [f"--{name}", str(path)]
    return args


def test_sim_check_verify_malformed_certificate(capsys, tmp_path):
    sq = square_bit()
    args = _square_bit_check(tmp_path, sq.E, [sq.E, sq.F])
    code, out, _ = run_cli(capsys, *args)
    cert = payload(out)["certificate"]
    used = cert["channels"][0]
    used["source"], used["matrix"] = used["source"][:1], used["matrix"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, *args, "--verify", str(bad))
    assert code == 0
    assert payload(out)["verified"] is False


@pytest.mark.parametrize("field, value", [("farkas", None), ("farkas", "12"),
                                          ("weights", None), ("channels", None)])
def test_sim_check_verify_rejects_non_list_fields(capsys, tmp_path, field, value):
    # A certificate field that is not a list is an input error (exit 2), not
    # a traceback, and a string is not read as a vector of its characters.
    sq = square_bit()
    args = _square_bit_check(tmp_path, sq.E, [sq.E, sq.F])
    code, out, _ = run_cli(capsys, *args)
    cert = payload(out)["certificate"]
    if field == "farkas":
        cert = {"verdict": "not_simulable"}
    cert[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, *args, "--verify", str(bad))
    assert code == 2 and not out
    assert f"certificate field {field!r} must be a list" in err


def test_sim_check_verify_rejects_a_non_object_certificate(capsys, tmp_path):
    sq = square_bit()
    args = _square_bit_check(tmp_path, sq.E, [sq.E, sq.F])
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    code, out, err = run_cli(capsys, *args, "--verify", str(bad))
    assert code == 2 and not out
    assert "input error: a certificate must be an object" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_sim_check_verify_rejects_non_finite_certificate_numbers(capsys, tmp_path, value):
    # json reads NaN and Infinity; a certificate holding them is an input
    # error (exit 2), not a certificate that verifies.
    sq = square_bit()
    e, f = sq.E.as_float(), sq.F.as_float()
    args = _square_bit_check(tmp_path, e, [e, f])
    code, out, _ = run_cli(capsys, *args)
    cert = payload(out)["certificate"]
    assert code == 0 and cert["verdict"] == "simulable"
    cert["weights"] = [float(value)] * len(cert["weights"])
    for chan in cert["channels"]:
        chan["matrix"] = [[float(value)] * len(row) for row in chan["matrix"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert value in bad.read_text()
    code, out, err = run_cli(capsys, *args, "--verify", str(bad))
    assert code == 2 and not out
    assert "input error:" in err and "is not a finite number" in err


def test_sim_check_rejects_an_int_too_large_for_a_float(capsys, tmp_path):
    # a float-mode file reads ints as floats; one beyond the largest float is
    # an input error (exit 2), not an OverflowError traceback
    sq = square_bit()
    e, f = sq.E.as_float(), sq.F.as_float()
    args = _square_bit_check(tmp_path, e, [e, f])
    target = tmp_path / "target.json"
    doc = json.loads(target.read_text())
    doc["outcomes"][0]["coeffs"][0] = 10 ** 400
    target.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and not out
    assert "input error:" in err and "is too large for a float" in err


@pytest.mark.parametrize("path, value, field", [
    (("channels",), [None], "channels[0]"),
    (("channels", 0, "matrix"), None, "channels[0].matrix"),
    (("channels", 0, "matrix"), [None], "channels[0].matrix[0]"),
    (("farkas",), [[1]], "farkas"),
])
def test_sim_check_verify_names_malformed_nested_field(capsys, tmp_path, path, value, field):
    # A malformed entry inside a certificate field is an input error (exit
    # 2) whose message names the entry, not a TypeError traceback or a
    # misleading mode error.
    sq = square_bit()
    args = _square_bit_check(tmp_path, sq.E, [sq.E, sq.F])
    code, out, _ = run_cli(capsys, *args)
    cert = payload(out)["certificate"]
    assert cert["verdict"] == "simulable"
    if path[0] == "farkas":
        cert = {"verdict": "not_simulable"}
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, *args, "--verify", str(bad))
    assert code == 2 and not out
    assert f"certificate field {field!r} must be" in err
    assert "Traceback" not in err and "exact-mode" not in err


@pytest.mark.parametrize("which, doc, message", [
    ("space", {"ambient_dim": None}, "space field 'ambient_dim' must be an integer"),
    ("space", {"extreme_states": [None]}, "space field 'extreme_states[0]' must be a list"),
    ("space", {"unit": "001"}, "space field 'unit' must be a list"),
    ("target", {"outcomes": [{"label": "+", "coeffs": None}]},
     "observable field 'outcomes[0].coeffs' must be a list"),
    ("target", {"outcomes": None}, "observable field 'outcomes' must be a list"),
    ("target", {"outcomes": [None]}, "observable field 'outcomes[0]' must be an object"),
    ("target", {"observables": None}, "field 'observables' must be a list"),
    ("target", {"observables": [None]}, "an observable must be an object"),
    ("target", {"observables": []}, "no observables found"),
    ("target", {"outcomes": [{"label": "+", "e0": "0", "e": None}]},
     "observable field 'outcomes[0].e' must be a list"),
    ("target", {"outcomes": [{"label": "+", "e0": [0], "e": ["0", "0", "1"]}]},
     "[0] is not a number"),
    ("target", {"outcomes": []}, "observable field 'outcomes' must be nonempty"),
    # unequal lengths, and lengths other than the space's ambient_dim 3
    ("target", {"outcomes": [{"label": "+", "coeffs": ["1/2", "0", "1/2"]},
                             {"label": "-", "coeffs": ["1/2", "0"]}]},
     "observable field 'outcomes[1].coeffs' must have 3 entries"),
    ("target", {"outcomes": [{"label": "+", "coeffs": ["1/2", "0"]},
                             {"label": "-", "coeffs": ["1/2", "0"]}]},
     "observable field 'outcomes[0].coeffs' must have 3 entries"),
    ("target", {"outcomes": [{"label": "+", "coeffs": ["1/2", "0", "1/2", "0"]},
                             {"label": "-", "coeffs": ["1/2", "0", "1/2", "0"]}]},
     "observable field 'outcomes[0].coeffs' must have 3 entries"),
])
@pytest.mark.parametrize("command", ["check", "noise"])
def test_sim_malformed_observable_or_space_exit_2(capsys, tmp_path, command, which, doc,
                                                  message):
    # A field of the wrong type is an input error (exit 2) that names the
    # field, not a TypeError traceback.
    sq = square_bit()
    args = _square_bit_check(tmp_path, sq.E, [sq.E, sq.F])
    if command == "noise":
        args = ["sim", "noise", *args[2:6]]
    path = tmp_path / f"{which}.json"
    base = space_to_json(sq.space) if which == "space" else {}
    path.write_text(json.dumps({**base, **doc}))
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and not out
    assert "input error: " in err and message in err


def test_space_validate_malformed_state_exit_2(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({**space_to_json(square_bit().space), "extreme_states": [None]}))
    code, out, err = run_cli(capsys, "space", "validate", str(path))
    assert code == 2 and not out
    assert "space field 'extreme_states[0]' must be a list" in err


@pytest.mark.parametrize("eps, verdict", [(None, "not_simulable"), ("1e-3", "simulable")])
def test_sim_check_eps_reaches_solve_and_replay(capsys, tmp_path, eps, verdict):
    sq = square_bit()
    e, f = sq.E.as_float(), sq.F.as_float()
    args = _square_bit_check(tmp_path, mix_observables([e, f], [1 - 1e-6, 1e-6]), [e])
    code, out, _ = run_cli(capsys, *args, *(["--eps", eps] if eps else []))
    assert code == 0
    assert payload(out)["verdict"] == verdict
    assert payload(out)["replay"] is True


def test_sim_decompose_qubit_mixture(capsys, tmp_path):
    doc = {"outcomes": [
        {"label": "+1", "e0": -0.5, "e": [0.5, 0.0, 0.0]},
        {"label": "-1", "e0": -0.5, "e": [-0.5, 0.0, 0.0]},
        {"label": "+2", "e0": -0.5, "e": [0.0, 0.5, 0.0]},
        {"label": "-2", "e0": -0.5, "e": [0.0, -0.5, 0.0]}]}
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "sim", "decompose", "--target", str(path))
    assert code == 0
    doc = payload(out)
    assert doc["replay"] is True
    assert len(doc["irreducibles"]) == 2
    assert sorted(doc["certificate"]["weights"]) == [0.5, 0.5]


@pytest.mark.parametrize("name, irreducible, noise", [
    ("ct08", False, {"noise_content": 0.19999999999999996, "trivial_weights": [0.5, 0.5]}),
    ("X", True, {"noise_content": "0", "trivial_weights": ["1/2", "1/2"]}),
    ("tetrahedron", True, {"noise_content": 0.0,
                           "trivial_weights": [0.25, 0.25, 0.25, 0.25]}),
])
def test_sim_irreducible_and_noise_qubit(capsys, tmp_path, name, irreducible, noise):
    suite = qubit_suite()
    obs = {"ct08": suite.ct(0.8), "X": suite.X, "tetrahedron": suite.tetrahedron}[name]
    path = tmp_path / f"{name}.json"
    path.write_text(dump_json(qubit_observable_to_json(obs)))
    code, out, _ = run_cli(capsys, "sim", "irreducible", "--target", str(path))
    assert code == 0
    assert payload(out) == {"simulation_irreducible": irreducible}
    code, out, _ = run_cli(capsys, "sim", "noise", "--target", str(path))
    assert code == 0
    assert payload(out) == noise


def test_sim_smin_xyz(capsys, tmp_path):
    suite = qubit_suite()
    path = tmp_path / "xyz.json"
    path.write_text(dump_json({"observables": [
        qubit_observable_to_json(o) for o in (suite.X, suite.Y, suite.Z)]}))
    code, out, _ = run_cli(capsys, "sim", "smin", "--target", str(path),
                           "--pool", str(path), "--k-max", "3")
    assert code == 0
    assert payload(out)["smin"] == 3


def test_polygon_counts_all_match(capsys):
    code, out, _ = run_cli(capsys, "polygon", "counts", "--n-max", "10")
    assert code == 0
    doc = payload(out)
    assert doc["all_match"] is True
    assert [r["n"] for r in doc["rows"]] == list(range(3, 11))


def test_polygon_counts_csv(capsys):
    code, out, _ = run_cli(capsys, "polygon", "counts", "--n-max", "6",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,dichotomic,trichotomic,enumerated,formula,match"
    assert lines[1].startswith("3,0,1,1,1,True")


def test_polygon_irreducibles_hexagon(capsys):
    code, out, _ = run_cli(capsys, "polygon", "irreducibles", "--n", "6")
    assert code == 0
    doc = payload(out)
    assert doc["count"] == 5
    assert len(doc["observables"]) == 5


def test_polygon_build_pentagon(capsys):
    code, out, _ = run_cli(capsys, "polygon", "build", "--n", "5")
    assert code == 0
    doc = payload(out)
    assert len(doc["space"]["extreme_states"]) == 5
    assert len(doc["f_effects"]) == 5


def test_qubit_octahedron(capsys, ct08_file):
    code, out, _ = run_cli(capsys, "qubit", "octahedron", "--obs", ct08_file)
    assert code == 0
    assert payload(out)["all_pass"] is False
    code, out, _ = run_cli(capsys, "qubit", "octahedron", "--t", "0.5")
    assert code == 0
    assert payload(out)["all_pass"] is True


def test_qubit_suite_dump(capsys):
    code, out, _ = run_cli(capsys, "qubit", "suite", "--t", "0.8")
    assert code == 0
    doc = payload(out)
    assert set(doc) >= {"X", "Y", "Z", "T", "tetrahedron", "Ct"}


def test_qubit_compat_bracket_fixed_targets(capsys, tmp_path):
    suite = qubit_suite()
    path = tmp_path / "xy.json"
    path.write_text(dump_json({"observables": [
        qubit_observable_to_json(suite.X), qubit_observable_to_json(suite.Y)]}))
    code, out, _ = run_cli(capsys, "qubit", "compat-bracket",
                           "--targets", str(path), "--facets", "16")
    assert code == 0
    assert payload(out) == {"verdict": "incompatible", "facets": 16}


def test_qubit_compat_bracket_invalid_target_exit_2(capsys, tmp_path):
    suite = qubit_suite()
    path = tmp_path / "xlong.json"
    path.write_text(dump_json({"observables": [
        qubit_observable_to_json(suite.xt(1.5)), qubit_observable_to_json(suite.yt(1.0))]}))
    code, out, err = run_cli(capsys, "qubit", "compat-bracket",
                             "--targets", str(path), "--facets", "16")
    assert code == 2
    assert out == ""
    assert "valid" in err


def test_qubit_compat_bracket_nonpositive_t_tol_exit_2(capsys):
    code, out, err = run_cli(capsys, "qubit", "compat-bracket", "--targets", "xyz",
                             "--facets", "8", "--t-tol", "0")
    assert code == 2
    assert out == ""
    assert "t_tol must be positive" in err


def test_reproduce_single(capsys):
    code, out, err = run_cli(capsys, "reproduce", "polygon-counts")
    assert code == 0
    doc = payload(out)
    assert doc["all_passed"] is True
    assert "[pass] polygon-counts" in err


def test_reproduce_unknown_id(capsys):
    code, _, err = run_cli(capsys, "reproduce", "no-such-criterion")
    assert code == 2
    assert "unknown criterion" in err


def test_byte_identical_output(capsys, ct08_file, xy_file):
    _, out1, _ = run_cli(capsys, "sim", "check", "--target", ct08_file,
                         "--simulators", xy_file)
    _, out2, _ = run_cli(capsys, "sim", "check", "--target", ct08_file,
                         "--simulators", xy_file)
    assert out1 == out2


def test_csv_and_json_verdicts_identical(capsys):
    _, as_json, _ = run_cli(capsys, "polygon", "counts", "--n-max", "7")
    _, as_csv, _ = run_cli(capsys, "polygon", "counts", "--n-max", "7",
                           "--format", "csv")
    json_rows = [(r["n"], r["dichotomic"], r["trichotomic"], r["enumerated"],
                  r["formula"], r["match"]) for r in payload(as_json)["rows"]]
    csv_rows = []
    for line in as_csv.strip().splitlines()[1:]:
        n, d, t, e, f, m = line.split(",")
        csv_rows.append((int(n), int(d), int(t), int(e), int(f), m == "True"))
    assert json_rows == csv_rows


def test_reproduce_failure_exits_1(capsys, monkeypatch):
    from gptsim.reproduce import CriterionResult

    monkeypatch.setattr("gptsim.cli.run_all",
                        lambda: [CriterionResult("stub", False, "forced")])
    code, out, err = run_cli(capsys, "reproduce", "all")
    assert code == 1
    assert "[FAIL] stub" in err


def test_solver_limit_exits_3(capsys, monkeypatch, ct08_file, xy_file):
    from gptsim.lp import SolverLimitError

    def boom(*args, **kwargs):
        raise SolverLimitError("pivot budget exhausted")

    monkeypatch.setattr("gptsim.cli.is_simulable", boom)
    code, _, err = run_cli(capsys, "sim", "check", "--target", ct08_file,
                           "--simulators", xy_file)
    assert code == 3
    assert "solver limit" in err


def test_certificate_error_exits_3(capsys, monkeypatch, ct08_file, xy_file):
    from gptsim.lp import CertificateError

    def boom(*args, **kwargs):
        raise CertificateError("certificate failed replay")

    monkeypatch.setattr("gptsim.cli.is_simulable", boom)
    code, _, err = run_cli(capsys, "sim", "check", "--target", ct08_file,
                           "--simulators", xy_file)
    assert code == 3
    assert "certificate error" in err


def test_phase_1_breakdown_exits_3(capsys, monkeypatch, ct08_file, xy_file):
    # a float ratio test that finds no leaving row in phase 1 is a solver
    # breakdown, reported as a certificate error rather than a traceback
    monkeypatch.setattr("gptsim.lp._FloatRevised.leaving", lambda self, col, basis: -1)
    code, out, err = run_cli(capsys, "sim", "check", "--target", ct08_file,
                             "--simulators", xy_file)
    assert code == 3
    assert out == ""
    assert "certificate error: phase 1 cannot be unbounded" in err
