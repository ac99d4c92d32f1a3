"""The seeded corpora that tier-1 digests pin, and one differ between dumps.

    PYTHONPATH=src python -m tests.corpora dump OUT
    PYTHONPATH=src python -m tests.corpora diff OLD NEW

`dump` runs every corpus and writes one canonical JSON line per LP solve:
corpus, decision index, solve index within the decision, program shape
(rows, columns), a digest of the program (rows, right-hand side,
objectives and start), verdict, solution, Farkas vector, ray, objective
value, pivots, and whether the certificate replays against the program that
was solved (`verify_solution` for a solution, `verify_farkas` for a Farkas
vector, at the default tolerance). Numbers are exact strings ("3/4") or
float reprs. Solves are recorded where `lp_solve` hands the program to the
driver, so a decision that solves several programs (a conic decomposition,
a compatibility bracket, a `reproduce` criterion) gives several lines.
After its solves, each decision gives one line of its own, without a solve
index: the decision's verdict ("passed" or "failed" for a criterion,
"<k> leaves" for a decomposition) and whether `replay_simulation` accepts
its certificate, against the source for a relation decision and against
the leaves for a decomposition (null for the others).
`diff` pairs the solves of each decision by program digest, in order: each
solve of NEW takes the first solve of OLD after the last one paired that
has its digest, so a solve that a change skips reads as gone and one whose
program moved as gone and new. It prints, per corpus, how many paired
solves moved verdict, certificate or pivots, the pivot totals and the
replay failures, then one line per paired solve that moved, then the same
for the decisions' verdicts and replays, and "moved nothing" when no solve
or decision moved, went or appeared. It exits 1 when the verdict of a
paired solve or of a decision moves or a replay is lost. Run `dump` on the
parent commit in a second checkout and on the change, then `diff` the two
files.

The test modules build their pinned corpora from the functions here, so a
dump covers exactly what the digests pin.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from functools import partial

from gptsim import lp
from gptsim.catalog import (
    classical,
    polygon,
    polygon_irreducibles,
    qubit_compatibility_bracket,
    random_observable,
    square_bit,
    tetrahedron_rational,
)
from gptsim.geometry import conic_decompose
from gptsim.lp import FEASIBLE, INFEASIBLE, lp_solve, make_program
from gptsim.postprocessing import apply, is_postprocessing_of, merge_channel
from gptsim.qubit import QubitEffect, dichotomic
from gptsim.reproduce import CRITERIA, CriterionResult, run_criterion
from gptsim.scalars import EXACT, FLOAT
from gptsim.simulation import (
    IrreducibleDecomposition,
    SimulationCertificate,
    decompose_to_irreducibles,
    is_compatible,
    replay_simulation,
    simulation_program,
)
from gptsim.spaces import dual_cone_rays

F = Fraction


def simulation_corpus():
    """Seeded exact simulation LPs: square bit, classical(3) and the
    rational-coordinate tetrahedron, 201 programs in all."""
    sq, cl, rat = square_bit(), classical(3), tetrahedron_rational()
    rng = random.Random(2026)
    programs = []
    for _ in range(33):
        a, b = random_observable(sq.space, rng), random_observable(sq.space, rng)
        c, d = random_observable(cl.space, rng), random_observable(cl.space, rng)
        for target, sims in ((a, [sq.E, sq.F]), (a, [sq.E]), (a, [sq.F]), (a, [b]),
                             (c, [cl.distinguishing]), (c, [d])):
            programs.append(simulation_program(target, sims))
    binarizations = [rat[f"C{i}"] for i in (1, 2, 3, 4)]
    for sims in ([rat["B"]], binarizations, [rat["D1"], rat["D2"]]):
        target = rat["A"] if sims == [rat["B"]] else rat["B"]
        programs.append(simulation_program(target, sims))
    return programs


def greedy_conic_programs(v, rays):
    """The programs of the ray-by-ray greedy conic decomposition: the
    feasibility program, then per ray the maximum of its coefficient over
    what is left of v, until an objective is unbounded or nothing is left."""
    rows = [tuple(r[i] for r in rays) for i in range(len(v))]
    programs = [make_program(rows=rows, rhs=v)]
    if lp_solve(programs[0]).verdict == INFEASIBLE:
        return programs
    residual = tuple(v)
    for k in range(len(rays)):
        programs.append(make_program(rows=[row[k:] for row in rows], rhs=residual,
                                     objective=[1.0] + [0.0] * (len(rays) - k - 1)))
        out = lp_solve(programs[-1])
        if out.verdict != FEASIBLE:
            break
        c = out.solution[0]
        if c > 1e-9:
            residual = tuple(x - c * y for x, y in zip(residual, rays[k]))
        if all(abs(x) <= 1e-9 for x in residual):
            break
    return programs


def float_corpus():
    """Seeded float programs: the float twins of the exact corpus (same
    start), polygon simulation LPs (n = 5..8) against the irreducible
    catalog and against one random observable, and the greedy conic
    decompositions of the effects of random polygon observables."""
    programs = [dataclasses.replace(p, rows=tuple(tuple(float(x) for x in r) for r in p.rows),
                                    rhs=tuple(float(b) for b in p.rhs))
                for p in simulation_corpus()]
    conic = []
    for n in range(5, 9):
        cat = polygon_irreducibles(n)
        space = cat.theory.space
        rays = dual_cone_rays(space)
        rng = random.Random(100 + n)
        for _ in range(6):
            target, other = random_observable(space, rng), random_observable(space, rng)
            programs.append(simulation_program(target, list(cat.observables)))
            programs.append(simulation_program(target, [other]))
            for effect in target.effects:
                conic.extend(greedy_conic_programs(effect.coeffs, rays))
    return programs + conic


def oracle_programs(seed, count):
    """Seeded exact programs over denominators up to 2**65, beyond a machine
    word: a third with a random right-hand side (mostly infeasible), a third
    made feasible by a nonnegative point and bounded by a sum row, with a
    0/1 objective whose optimal face is often wider than a vertex and up to
    two tie-breaks, and a third feasible but possibly unbounded."""
    rng = random.Random(seed)
    dens = (1, 1, 2, 3, 6, 2**65, 3**41, 2**31 * 3**21)

    def entry():
        return F(rng.randint(-9, 9), rng.choice(dens))

    programs = []
    for k in range(count):
        m, n = rng.randint(2, 5), rng.randint(3, 7)
        rows = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        if k % 3 == 0:
            rhs = [entry() for _ in range(m)]
        else:
            x0 = [rng.choice((0, 0, abs(entry()))) for _ in range(n)]
            rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
            if k % 3 == 1:
                rows.append([1] * n)
                rhs.append(sum(x0))
        objective, tiebreaks = None, ()
        if k % 3 or rng.random() < 0.5:
            objective = [rng.choice((0, 0, 0, 1)) for _ in range(n)]
            tiebreaks = [[rng.choice((0, entry())) for _ in range(n)]
                         for _ in range(rng.randint(0, 2))]
        programs.append(make_program(rows, rhs, objective, tiebreaks))
    return programs


def conic_corpus():
    """Seeded exact decompositions (v, rays): the dual-cone rays of the
    square bit, classical(3) and classical(4) in canonical and shuffled
    order, two spans that hold a line, and 300 random rational cones in
    dims 2-4 (about a third hold a line; for about a third, v is a random
    vector, often outside the cone)."""
    rng = random.Random(7)
    cases = []
    for theory in (square_bit(), classical(3), classical(4)):
        space = theory.space
        rays = list(dual_cone_rays(space))
        shuffled = rays[:]
        rng.shuffle(shuffled)
        vs = [space.unit] + [e.coeffs for _ in range(4)
                             for e in random_observable(space, rng).effects]
        cases.extend((v, order) for v in vs for order in (rays, shuffled))
    # The line (0, 1), (0, -1) is met after nothing of v is left, then before.
    cases.append(((1, 1), [(1, 1), (1, 0), (0, 1), (0, -1)]))
    cases.append(((1, 0), [(1, 1), (1, 0), (0, 1), (0, -1)]))
    for _ in range(300):
        dim = rng.randint(2, 4)
        rays = []
        while len(rays) < rng.randint(2, 6):
            r = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            if any(r):
                rays.append(r)
        if rng.random() < 0.3:
            line = rays[rng.randrange(len(rays))]
            rays.insert(rng.randrange(len(rays) + 1), tuple(-x for x in line))
        if rng.random() < 0.7:
            weights = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in rays]
            v = tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(dim))
        else:
            v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        cases.append((v, rays))
    return cases


def relation_corpus():
    """Seeded (target, source) pairs: random square-bit and classical(3)
    observables against each other and against a coarse-graining, the float
    twins of those pairs, and the same pairs on polygons n = 5..8."""
    def coarse(obs):
        return apply(merge_channel(obs.labels, obs.labels[:2], obs.labels[0], obs.mode), obs)

    rng = random.Random(2026)
    spaces = [square_bit().space, classical(3).space] * 10
    spaces += [polygon(n).space for n in range(5, 9) for _ in range(4)]
    exact, polygons = [], []
    for space in spaces:
        a, b = random_observable(space, rng), random_observable(space, rng)
        pairs = [(a, b), (b, a), (coarse(a), a), (a, coarse(a))]
        (exact if space.mode == "exact" else polygons).extend(pairs)
    return exact + [(t.as_float(), s.as_float()) for t, s in exact] + polygons


def _qubit_targets(rng, count):
    """`count` lists of dichotomic qubit observables, three and two in
    turn, with random Bloch vectors of length 0.45-0.85."""
    cases = []
    for i in range(count):
        targets = []
        for _ in range(2 if i % 2 else 3):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            scale = rng.uniform(0.45, 0.85) / math.sqrt(sum(c * c for c in v))
            targets.append(dichotomic("+", "-", QubitEffect(0.0, tuple(c * scale for c in v))))
        cases.append(targets)
    return cases


def compatibility_corpus():
    """(polytope target lists, qubit target lists): seeded random
    observables on the square bit, classical(3), classical(4), the pentagon
    and the hexagon, pairs of pentagon and hexagon irreducibles, and twelve
    dichotomic qubit triples and pairs."""
    spaces = {"square": square_bit().space, "classical3": classical(3).space,
              "classical4": classical(4).space, "pentagon": polygon(5).space,
              "hexagon": polygon(6).space}
    polytope = []
    for name, space in spaces.items():
        rng = random.Random(f"compat-digest/{name}")
        for i in range(6):
            polytope.append([random_observable(space, rng, rng.randint(2, 3))
                             for _ in range(3 if i % 3 == 0 else 2)])
    for n in (5, 6):
        obs = polygon_irreducibles(n).observables
        polytope.extend([obs[a], obs[b]] for a, b in ((0, 1), (0, 2), (1, 3)))
    return polytope, _qubit_targets(random.Random("compat-digest/qubit"), 12)


def decomposition_corpus():
    """Seeded random observables with 2-5 outcomes to decompose into
    irreducibles: six on each polygon n = 5..8 (float) and twelve on the
    square bit (exact)."""
    observables = []
    for n in range(5, 9):
        rng = random.Random(f"decomposition/{n}")
        observables.extend(random_observable(polygon(n).space, rng) for _ in range(6))
    rng = random.Random("decomposition/square")
    return observables + [random_observable(square_bit().space, rng) for _ in range(12)]


def bracket_corpus():
    """24 seeded dichotomic qubit triples and pairs for 128-facet brackets."""
    return _qubit_targets(random.Random("bracket-128-digest"), 24)


def _compatibility_decisions():
    polytope, qubit = compatibility_corpus()
    return ([partial(is_compatible, targets) for targets in polytope]
            + [partial(qubit_compatibility_bracket, targets, facets)
               for targets in qubit for facets in (8, 16)])


CORPORA = {
    "exact": lambda: [partial(lp_solve, p, EXACT) for p in simulation_corpus()],
    "float": lambda: [partial(lp_solve, p, FLOAT) for p in float_corpus()],
    "oracle": lambda: [partial(lp_solve, p, EXACT) for p in oracle_programs(31, 90)],
    "conic": lambda: [partial(conic_decompose, v, rays) for v, rays in conic_corpus()],
    "relation": lambda: [partial(is_postprocessing_of, t, s) for t, s in relation_corpus()],
    "compatibility": _compatibility_decisions,
    "decomposition": lambda: [partial(decompose_to_irreducibles, obs)
                              for obs in decomposition_corpus()],
    "bracket-128": lambda: [partial(qubit_compatibility_bracket, targets, 128)
                            for targets in bracket_corpus()],
    "reproduce": lambda: [partial(run_criterion, cid) for cid in CRITERIA],
}


def _number(x):
    return repr(x) if isinstance(x, float) else str(x)


def _vector(v):
    return None if v is None else [_number(x) for x in v]


def _digest(program) -> str:
    """A digest of what defines the program: rows (a tuple or an ndarray),
    right-hand side, objectives and start."""
    rows = program.rows.tolist() if hasattr(program.rows, "tolist") else program.rows
    text = json.dumps([[_vector(r) for r in rows], _vector(program.rhs),
                       [_vector(c) for c in program.objectives()], program.start])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _line(corpus, index, solve, program, out) -> dict:
    if out.verdict == INFEASIBLE:
        replays = lp.verify_farkas(program, out.farkas, mode=out.mode)
    else:
        replays = lp.verify_solution(program, out.solution, mode=out.mode)
    return {"corpus": corpus, "index": index, "solve": solve,
            "shape": [len(program.rhs), program.num_vars], "program": _digest(program),
            "verdict": out.verdict,
            "solution": _vector(out.solution), "farkas": _vector(out.farkas),
            "ray": _vector(out.ray),
            "objective": None if out.objective_value is None else _number(out.objective_value),
            "pivots": out.pivots, "replays": replays}


def _decision(corpus, index, decide, result) -> dict:
    replays = None
    if isinstance(result, CriterionResult):
        verdict = "passed" if result.passed else "failed"
    elif isinstance(result, IrreducibleDecomposition):
        verdict = f"{len(result.observables)} leaves"
        replays = replay_simulation(result.certificate, *decide.args, list(result.observables))
    else:
        verdict = result.verdict
    if isinstance(result, SimulationCertificate):  # a relation decision
        target, source = decide.args
        replays = replay_simulation(result, target, [source])
    return {"corpus": corpus, "index": index, "verdict": verdict, "replays": replays}


def record(corpus):
    """The dump lines of one corpus: each decision runs with `lp._simplex`
    wrapped, every solve it makes becomes one line, and its own result one
    more. The corpus starts from empty ray caches and answer stores, so its
    lines do not depend on the corpora dumped before it."""
    dual_cone_rays.cache_clear()
    decisions = CORPORA[corpus]()
    solves, simplex = [], lp._simplex

    def recorded(program, kernel, F):
        out = simplex(program, kernel, F)
        solves.append((program, out))
        return out

    lines = []
    lp._simplex = recorded
    try:
        for index, decide in enumerate(decisions):
            solves.clear()
            result = decide()
            lines.extend(_line(corpus, index, k, p, out) for k, (p, out) in enumerate(solves))
            lines.append(_decision(corpus, index, decide, result))
    finally:
        lp._simplex = simplex
    return lines


def dump(path):
    with open(path, "w") as fh:
        for corpus in CORPORA:
            for line in record(corpus):
                fh.write(json.dumps(line, sort_keys=True) + "\n")


def _load(path) -> tuple:
    """({corpus: {index: [solve lines in file order]}}, {corpus: {index:
    line}}): the solve lines and the decision lines, corpora in file order."""
    solves, decisions = {}, {}
    with open(path) as fh:
        for text in fh:
            line = json.loads(text)
            if "solve" in line:
                solves.setdefault(line["corpus"], {}).setdefault(line["index"], []).append(line)
            else:
                decisions.setdefault(line["corpus"], {})[line["index"]] = line
    return solves, decisions


def _paired(a, b) -> tuple:
    """Pair the solves of each decision by program digest, in order: each
    solve of b takes the first unpaired solve of a after the last pair that
    has its digest. Returns ({(index, solve in a, solve in b): (line in a,
    line in b)}, solves of a left unpaired, solves of b left unpaired)."""
    pairs, gone, added = {}, 0, 0
    for index in dict.fromkeys([*a, *b]):
        old, new = a.get(index, []), b.get(index, [])
        digests, at, paired = [x["program"] for x in old], 0, 0
        for line in new:
            try:
                at = digests.index(line["program"], at)
            except ValueError:  # no solve of this program left in a
                continue
            pairs[index, old[at]["solve"], line["solve"]] = old[at], line
            at, paired = at + 1, paired + 1
        gone += len(old) - paired
        added += len(new) - paired
    return pairs, gone, added


_CERTIFICATE = ("solution", "farkas", "ray", "objective")

_SOLVE_MOVES = {
    "verdict": lambda a, b: a["verdict"] != b["verdict"],
    "certificate": lambda a, b: any(a[f] != b[f] for f in _CERTIFICATE),
    "pivots": lambda a, b: a["pivots"] != b["pivots"],
    "replay lost": lambda a, b: a["replays"] and not b["replays"],
}

_DECISION_MOVES = {
    "verdict": _SOLVE_MOVES["verdict"],
    "replay lost": _SOLVE_MOVES["replay lost"],
}


def _moves(pairs, tests) -> tuple:
    """({key: names of the tests that hold} for each (a, b) pair, the count
    of each test)."""
    moved = {k: [f for f, test in tests.items() if test(a, b)] for k, (a, b) in pairs.items()}
    return moved, {f: sum(f in fields for fields in moved.values()) for f in tests}


def diff(old_path, new_path, file=sys.stdout):
    """Print per corpus what moved between two dumps; returns the number of
    paired solves and decisions whose verdict moved or whose certificate
    fails replay in NEW where it replayed in OLD."""
    (old, old_decisions), (new, new_decisions) = _load(old_path), _load(new_path)
    alarms = changes = 0
    for corpus in dict.fromkeys([*old, *new, *old_decisions, *new_decisions]):
        a, b = old.get(corpus, {}), new.get(corpus, {})
        pairs, gone, added = _paired(a, b)
        moved, count = _moves(pairs, _SOLVE_MOVES)
        alarms += count["verdict"] + count["replay lost"]
        changes += sum(count.values()) + gone + added
        a = [x for lines in a.values() for x in lines]
        b = [x for lines in b.values() for x in lines]
        print(f"{corpus}: {len(a)} -> {len(b)} solves ({gone} gone, {added} new);"
              f" moved: {', '.join(f'{f} {n}' for f, n in count.items())};"
              f" pivots {sum(x['pivots'] for x in a)} -> {sum(x['pivots'] for x in b)};"
              f" replay failures {sum(not x['replays'] for x in a)}"
              f" -> {sum(not x['replays'] for x in b)}", file=file)
        for (index, solve, paired), fields in moved.items():
            if fields:
                before, after = pairs[index, solve, paired]
                print(f"  #{index}.{solve}" + (f" (now .{paired})" if paired != solve else "")
                      + f": {', '.join(fields)}; {before['verdict']} -> {after['verdict']},"
                      f" pivots {before['pivots']} -> {after['pivots']}", file=file)
        a, b = old_decisions.get(corpus, {}), new_decisions.get(corpus, {})
        moved, count = _moves({k: (a[k], b[k]) for k in a if k in b}, _DECISION_MOVES)
        gone, added = len(a) - len(moved), len(b) - len(moved)
        alarms += count["verdict"] + count["replay lost"]
        changes += sum(count.values()) + gone + added
        print(f"  decisions: {len(a)} -> {len(b)} ({gone} gone, {added} new);"
              f" moved: {', '.join(f'{f} {n}' for f, n in count.items())}", file=file)
        for index, fields in moved.items():
            if fields:
                print(f"  decision #{index}: {', '.join(fields)};"
                      f" {a[index]['verdict']} -> {b[index]['verdict']},"
                      f" replays {a[index]['replays']} -> {b[index]['replays']}", file=file)
    if not changes:
        print("moved nothing", file=file)
    return alarms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.corpora", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write one JSON line per solve and per decision of each corpus")
    p.add_argument("out")
    p = sub.add_parser("diff", help="print what moved between two dumps")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
        return 0
    return 1 if diff(args.old, args.new) else 0


if __name__ == "__main__":
    sys.exit(main())
