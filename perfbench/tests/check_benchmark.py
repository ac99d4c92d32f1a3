"""Seconds-long checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests/check_benchmark.py

The file name keeps these cases out of the library's default test run:
each one starts benchmark processes.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "2"
SEED = "99"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def details(workload, seed, trace):
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def assert_metrics(done, specs):
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"{m['name']} = " in done.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    done = bench("--workload", workload, "--seed", SEED, "--seconds", SECONDS,
                 "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = assert_metrics(done, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "failed_ratio = " in done.stdout
    # no verdict contradicts an oracle or the float twin
    assert result["correct"] is True
    # every failure (a raise or a certificate that fails replay) is listed
    failed = {f["decision"] for f in details(workload, SEED, 0)["failures"]}
    listed = {int(line.split()[2]) for line in done.stdout.splitlines()
              if line.startswith("FAILED decision ")}
    assert listed == failed
    assert (result["failed"] > 0) == bool(failed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", SEED, "--seconds", SECONDS,
                     "--trace", "1")
        assert done.returncode == 0, done.stderr
        assert_metrics(done, SPEC["per_layer"])
        info = details(workload, SEED, 1)
        runs.append((info["counts"], info["tally"]))
    assert runs[0] == runs[1]
    assert runs[0][0]["lp.solves"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", SEED, "--seconds", SECONDS,
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
