"""Command-line behaviour: payload verdicts, exit codes, determinism."""

import json

import pytest

from gptsim.cli import main
from gptsim.serialize import dump_json, qubit_observable_to_json, space_to_json
from gptsim.catalog import qubit_suite, square_bit


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
    assert payload(out)["verdict"] == "incompatible"


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


def test_jobs_flag_matches_serial(capsys):
    _, serial, _ = run_cli(capsys, "polygon", "counts", "--n-max", "8",
                           "--format", "csv")
    _, parallel, _ = run_cli(capsys, "polygon", "counts", "--n-max", "8",
                             "--format", "csv", "--jobs", "2")
    assert serial == parallel


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
