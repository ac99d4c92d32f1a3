"""`python -m tests.corpora diff` pairs the solves of a decision by program
digest, in order, so a solve that a change skips reads as gone."""

import io
import json

from corpora import diff

DECISION = {"corpus": "c", "index": 0, "verdict": "passed", "replays": None}


def _solve(solve, program, verdict):
    return {"corpus": "c", "index": 0, "solve": solve, "shape": [1, 1], "program": program,
            "verdict": verdict, "solution": None, "farkas": None, "ray": None,
            "objective": None, "pivots": 1, "replays": True}


def _diff(tmp_path, old, new) -> tuple:
    paths = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, lines in zip(paths, (old, new)):
        path.write_text("".join(json.dumps(line) + "\n" for line in [*lines, DECISION]))
    out = io.StringIO()
    return diff(*paths, file=out), out.getvalue()


def test_a_skipped_solve_is_gone_not_moved(tmp_path):
    # paired by solve index, old #1 (infeasible) would meet new #1 (feasible)
    old = [_solve(0, "a", "feasible"), _solve(1, "b", "infeasible"), _solve(2, "c", "feasible")]
    new = [_solve(0, "a", "feasible"), _solve(1, "c", "feasible")]
    alarms, text = _diff(tmp_path, old, new)
    assert alarms == 0
    assert "c: 3 -> 2 solves (1 gone, 0 new); moved: verdict 0," in text


def test_a_verdict_moved_on_the_same_program_is_an_alarm(tmp_path):
    old = [_solve(0, "a", "feasible"), _solve(1, "b", "feasible")]
    new = [_solve(0, "b", "infeasible"), _solve(1, "d", "feasible")]
    alarms, text = _diff(tmp_path, old, new)
    assert alarms == 1
    assert "c: 2 -> 2 solves (1 gone, 1 new); moved: verdict 1," in text
    assert "#0.1 (now .0): verdict; feasible -> infeasible" in text


def test_a_moved_certificate_is_reported_not_an_alarm(tmp_path):
    # a decision line's certificate digest: a move is counted, and a dump
    # written before decision lines carried it compares none
    def run(old, new):
        paths = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        for path, line in zip(paths, (old, new)):
            path.write_text(json.dumps(line) + "\n")
        out = io.StringIO()
        return diff(*paths, file=out), out.getvalue()

    alarms, text = run(dict(DECISION, certificate="a"), dict(DECISION, certificate="b"))
    assert alarms == 0
    assert "moved: verdict 0, certificate 1, replay lost 0" in text and "moved nothing" not in text
    assert "decision #0: certificate; passed -> passed" in text
    alarms, text = run(DECISION, dict(DECISION, certificate="b"))
    assert alarms == 0 and "moved nothing" in text


def test_an_added_corpus_is_reported_not_an_alarm(tmp_path):
    # a corpus that the old dump lacks, such as irreducibility verdicts that
    # make no solve, reads as new decisions
    paths = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    added = [dict(DECISION, corpus="irreducibility", index=k, verdict=v, certificate="a")
             for k, v in enumerate(("irreducible", "reducible"))]
    for path, lines in zip(paths, ([DECISION], [DECISION, *added])):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = io.StringIO()
    assert diff(*paths, file=out) == 0
    text = out.getvalue()
    assert "irreducibility: 0 -> 0 solves" in text and "decisions: 0 -> 2 (0 gone, 2 new)" in text
    assert "moved nothing" not in text
