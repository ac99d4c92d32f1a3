"""Span tracing of gptsim's layers from outside the library.

`Tracer.install()` replaces each public layer function listed in `LAYERS`
with a wrapper at every module attribute it is bound to (functions imported
by name, such as `lp_solve` or `infer_mode`, are bound in several modules)
and restores the originals on `uninstall()`. While `active`, a wrapper
records a span (name, start, end, parent span, decision id) in memory;
`infer_mode`, which is called tens of thousands of times and calls nothing
traced, is only counted and timed, and its time is charged to the
enclosing span so that self times stay exact.

Every `lp_solve` outcome is replayed with `verify_solution` or
`verify_farkas` right after the solve. That replay, and the tracer's own
bookkeeping around it, run with the clock paused: the paused time is taken
out of every open span and out of the traced wall time used for the
overhead figure.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

from gptsim import catalog, geometry, lp, postprocessing, scalars, simulation, spaces

# span name -> (module, function name). Every binding of the function in a
# loaded gptsim module is wrapped.
LAYERS = {
    "lp.solve": (lp, "lp_solve"),
    "lp.make_program": (lp, "make_program"),
    "lp.verify": (lp, "verify_solution"),
    "lp.verify_farkas": (lp, "verify_farkas"),
    "simulation.assemble": (simulation, "simulation_program"),
    "simulation.is_simulable": (simulation, "is_simulable"),
    "simulation.replay": (simulation, "replay_simulation"),
    "simulation.decompose": (simulation, "decompose_to_irreducibles"),
    "simulation.noise_content": (simulation, "noise_content"),
    "simulation.is_simulation_irreducible": (simulation, "is_simulation_irreducible"),
    "simulation.smin": (simulation, "smin"),
    "geometry.conic_decompose": (geometry, "conic_decompose"),
    "geometry.rank": (geometry, "rank"),
    "spaces.is_indecomposable": (spaces, "is_indecomposable"),
    "spaces.decompose_into_indecomposables": (spaces, "decompose_into_indecomposables"),
    "spaces.dual_cone_rays": (spaces, "dual_cone_rays"),
    "postprocessing.relation": (postprocessing, "is_postprocessing_of"),
    "postprocessing.replay_relation": (postprocessing, "replay_relation"),
    "postprocessing.minimally_sufficient": (postprocessing, "minimally_sufficient"),
    "postprocessing.minimally_sufficient_with_channels":
        (postprocessing, "minimally_sufficient_with_channels"),
    "catalog.enumerate": (catalog, "polygon_irreducibles"),
    "catalog.bracket": (catalog, "qubit_compatibility_bracket"),
}

# Span record fields.
NAME, START, END, PARENT, DECISION, LEAF, PAUSE, INFO = range(8)


class Tracer:
    def __init__(self):
        self.active = False
        self.decision = -1
        self.spans = []
        self.stack = []
        self.paused = 0.0          # clock time spent replaying and bookkeeping
        self.infer_calls = 0
        self.infer_time = 0.0
        self.solver_limit_errors = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gptsim" or name.startswith("gptsim.")]
        for span, (module, attr) in LAYERS.items():
            self._patch_everywhere(modules, getattr(module, attr),
                                   self._span_wrapper(span, getattr(module, attr)))
        self._patch_everywhere(modules, scalars.infer_mode,
                               self._leaf_wrapper(scalars.infer_mode))
        original_mode = lp.LinearProgram.mode
        self._patches.append((lp.LinearProgram, "mode", original_mode))
        lp.LinearProgram.mode = self._span_wrapper("lp.mode", original_mode)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        is_solve = fn is lp.lp_solve

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.decision,
                   0.0, tracer.paused, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except lp.SolverLimitError:
                if is_solve:
                    tracer.solver_limit_errors += 1
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                rec[PAUSE] = tracer.paused - rec[PAUSE]
            if is_solve:
                tracer._after_solve(rec, args, kwargs, result)
            elif name == "simulation.decompose":
                rec[INFO] = result.splits
            elif name == "catalog.bracket":
                rec[INFO] = result.verdict
            return result

        return wrapper

    def _leaf_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            tracer.infer_calls += 1
            tracer.infer_time += dt
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][LEAF] += dt
            return result

        return wrapper

    def _after_solve(self, rec, args, kwargs, outcome):
        """Replay the outcome and size its tableau, with the clock paused."""
        t0 = time.perf_counter()
        self.active = False
        try:
            program = args[0]
            tol = kwargs.get("tol", args[2] if len(args) > 2 else lp.DEFAULT_TOLERANCE)
            if outcome.verdict == lp.INFEASIBLE:
                ok = lp.verify_farkas(program, outcome.farkas, tol, mode=outcome.mode)
            elif outcome.solution is not None:
                ok = lp.verify_solution(program, outcome.solution, tol, mode=outcome.mode)
            else:
                ok = True  # an unbounded verdict carries no certificate here
            width = _tableau_width(program) if outcome.mode == scalars.FLOAT else 0
            rec[INFO] = (outcome.mode, outcome.pivots, len(program.rows), width, ok,
                         outcome.verdict)
        finally:
            self.active = True
            # open ancestors see this through their snapshot of `paused`
            self.paused += time.perf_counter() - t0

    # -- results -----------------------------------------------------------

    def durations(self):
        """Per span: (duration, self time), both with paused time removed."""
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        for i, rec in enumerate(self.spans):
            dur[i] = rec[END] - rec[START] - rec[PAUSE]
        for i, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += dur[i]
        return dur, [dur[i] - child[i] - self.spans[i][LEAF] for i in range(n)]

    def layer_metrics(self, decisions, cache_delta):
        """The per-layer metrics of one traced segment, as {name: (value, unit)}."""
        spans = self.spans
        dur, own = self.durations()
        total = {}
        selft = {}
        count = {}
        for i, rec in enumerate(spans):
            total[rec[NAME]] = total.get(rec[NAME], 0.0) + dur[i]
            selft[rec[NAME]] = selft.get(rec[NAME], 0.0) + own[i]
            count[rec[NAME]] = count.get(rec[NAME], 0) + 1

        def ms(table, *names):
            return 1e3 * sum(table.get(n, 0.0) for n in names)

        solves = [i for i, rec in enumerate(spans) if rec[NAME] == "lp.solve"]
        finished = [i for i in solves if spans[i][INFO] is not None]
        exact = [i for i in finished if spans[i][INFO][0] == scalars.EXACT]
        floats = [i for i in finished if spans[i][INFO][0] == scalars.FLOAT]
        pivots = sum(spans[i][INFO][1] for i in finished)
        tableau_bytes = sum(spans[i][INFO][1] * spans[i][INFO][2] * spans[i][INFO][3] * 8
                            for i in floats)
        replay_failures = [i for i in finished if not spans[i][INFO][4]]

        conic = [i for i, rec in enumerate(spans) if rec[NAME] == "geometry.conic_decompose"]
        conic_solves = sum(1 for i in solves if spans[i][PARENT] in set(conic))

        brackets = [i for i, rec in enumerate(spans) if rec[NAME] == "catalog.bracket"]
        children = {}
        for i in solves:
            children.setdefault(spans[i][PARENT], []).append(i)
        inner = [children[b][0] for b in brackets if len(children.get(b, ())) > 0]
        outer = [children[b][1] for b in brackets if len(children.get(b, ())) > 1]
        decided = sum(1 for b in brackets if spans[b][INFO] not in (None, "undecided"))
        hits, misses = cache_delta

        metrics = {
            "lp.solves": (len(solves), "count"),
            "lp.pivots": (pivots, "count"),
            "lp.solves_per_decision": (len(solves) / max(decisions, 1), "solves/decision"),
            "lp.exact.self_ms": (1e3 * sum(own[i] for i in exact), "ms"),
            "lp.float.self_ms": (1e3 * sum(own[i] for i in floats), "ms"),
            "lp.float.solve_p50_ms": (
                1e3 * statistics.median(dur[i] for i in floats) if floats else 0.0, "ms"),
            "lp.float.tableau_mb_computed": (tableau_bytes / 1e6, "MB"),
            "lp.mode_ms": (ms(total, "lp.mode"), "ms"),
            "lp.make_program_ms": (ms(total, "lp.make_program"), "ms"),
            "lp.verify_ms": (ms(total, "lp.verify", "lp.verify_farkas"), "ms"),
            "lp.cert_replay_failures": (len(replay_failures), "count"),
            "lp.solver_limit_errors": (self.solver_limit_errors, "count"),
            "simulation.assemble_ms": (ms(total, "simulation.assemble"), "ms"),
            "simulation.is_simulable.self_ms": (ms(selft, "simulation.is_simulable"), "ms"),
            "simulation.replay_ms": (ms(total, "simulation.replay"), "ms"),
            "simulation.decompose.self_ms": (ms(selft, "simulation.decompose"), "ms"),
            "simulation.decompose.splits": (
                sum(rec[INFO] for rec in spans
                    if rec[NAME] == "simulation.decompose" and rec[INFO] is not None),
                "count"),
            "simulation.noise_content.self_ms": (ms(selft, "simulation.noise_content"), "ms"),
            "geometry.conic_decompose.self_ms": (ms(selft, "geometry.conic_decompose"), "ms"),
            "geometry.conic_decompose.solves_per_call": (
                conic_solves / len(conic) if conic else 0.0, "solves/call"),
            "geometry.rank.self_ms": (ms(selft, "geometry.rank"), "ms"),
            "spaces.indecomposables.self_ms": (
                ms(selft, "spaces.is_indecomposable", "spaces.decompose_into_indecomposables"),
                "ms"),
            "spaces.dual_cone_rays.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "postprocessing.relation.self_ms": (ms(selft, "postprocessing.relation"), "ms"),
            "postprocessing.minimally_sufficient.self_ms": (
                ms(selft, "postprocessing.minimally_sufficient",
                   "postprocessing.minimally_sufficient_with_channels"), "ms"),
            "catalog.enumerate.self_ms": (ms(selft, "catalog.enumerate"), "ms"),
            "catalog.bracket.self_ms": (ms(selft, "catalog.bracket"), "ms"),
            "catalog.bracket.inner_solve_ms": (1e3 * sum(dur[i] for i in inner), "ms"),
            "catalog.bracket.outer_solve_ms": (1e3 * sum(dur[i] for i in outer), "ms"),
            "catalog.bracket.outer_rows": (
                statistics.mean(spans[i][INFO][2] for i in outer)
                if outer and all(spans[i][INFO] for i in outer) else 0.0, "rows"),
            "catalog.bracket.decided_ratio": (
                decided / len(brackets) if brackets else 0.0, "ratio"),
            "scalars.infer_mode.calls": (self.infer_calls, "count"),
            "scalars.infer_mode.ms": (1e3 * self.infer_time, "ms"),
        }
        bases = {
            "lp.solves_per_decision": f"{len(solves)} solves / {decisions} decisions",
            "geometry.conic_decompose.solves_per_call":
                f"{conic_solves} solves / {len(conic)} calls",
            "spaces.dual_cone_rays.hit_ratio": f"{hits} hits / {hits + misses} lookups",
            "catalog.bracket.decided_ratio": f"{decided} decided / {len(brackets)} brackets",
            "catalog.bracket.outer_rows": f"mean over {len(outer)} outer programs",
            "lp.float.solve_p50_ms": f"median of {len(floats)} float solves",
            "lp.cert_replay_failures": f"of {len(finished)} replayed outcomes",
        }
        return metrics, bases

    def replay_failures(self):
        """The solves whose certificate failed replay, with their decision id."""
        return [{"decision": rec[DECISION], "mode": rec[INFO][0], "rows": rec[INFO][2],
                 "verdict": rec[INFO][5], "pivots": rec[INFO][1]}
                for rec in self.spans
                if rec[NAME] == "lp.solve" and rec[INFO] is not None and not rec[INFO][4]]

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, decision."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "decision": rec[DECISION]}) + "\n")


def _tableau_width(program):
    """Columns of the float simplex tableau: standard-form columns (free
    variables split in two), one artificial per row that no positive
    singleton column can start in, and the right-hand side."""
    m = len(program.rows)
    cols, signs = [], []
    for j, flag in enumerate(program.nonneg):
        cols.append(j)
        signs.append(1.0)
        if not flag:
            cols.append(j)
            signs.append(-1.0)
    if m == 0:
        return len(cols) + 1
    flips = np.where(np.array(program.rhs, dtype=float) < 0, -1.0, 1.0)
    A = np.array(program.rows, dtype=float)[:, cols] * np.array(signs) * flips[:, None]
    nonzero = A != 0.0
    crashed = np.zeros(m, dtype=bool)
    for j in np.nonzero(nonzero.sum(axis=0) == 1)[0]:
        i = int(np.argmax(nonzero[:, j]))
        if not crashed[i] and A[i, j] > 0:
            crashed[i] = True
    return len(cols) + int(m - crashed.sum()) + 1


_DUAL_CONE_RAYS = spaces.dual_cone_rays  # the lru_cache object, before wrapping


def cache_counts():
    """(hits, misses) of the dual-cone ray cache so far."""
    info = _DUAL_CONE_RAYS.cache_info()
    return info.hits, info.misses
