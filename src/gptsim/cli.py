"""Command-line interface.

Verdicts always live in the JSON payload, never in the exit code: 0 means
the computation completed (whatever the answer), 1 is reserved for a failed
reproduction run, 2 for input errors, and 3 for solver nontermination or a
certificate that fails replay.
Output is deterministic for a fixed (command, config): the timing
block reports LP work counters rather than wall-clock time. A polytope
refinement decided from a stored basis (`spaces.StateSpace.refine`) and a
simulation decided from the simulation-set store (`simulation.is_simulable`)
are not LP solves, and add to neither counter. Each command starts from
empty stores (`dual_cone_rays.cache_clear()`), so its output does not depend
on the commands run before it in the same process.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lp
from .catalog import (
    irreducible_count_formula,
    octahedron_test,
    polygon,
    polygon_irreducibles,
    qubit_compatibility_bracket,
    qubit_suite,
    xyz_threshold_bracket,
)
from .geometry import extreme_rays
from .lp import CertificateError, SolverLimitError
from .qubit import QubitSpace
from .scalars import EXACT, FLOAT, ModeError, Tolerance
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    csv_text,
    dump_json,
    encode_number,
    encode_vector,
    load_json,
    load_observables,
    load_space,
    observable_to_json,
    qubit_observable_to_json,
    space_to_json,
)
from .simulation import (
    decompose_to_irreducibles,
    is_simulable,
    is_simulation_irreducible,
    noise_content,
    replay_simulation,
    smin,
)
from .spaces import dual_cone_rays, validate_state_space
from .reproduce import CRITERIA, run_all, run_criterion


def _tolerance(args) -> Tolerance:
    return Tolerance() if args.eps is None else Tolerance(args.eps)


def _config(args) -> dict:
    return {
        "mode": args.mode,
        "eps": args.eps,
        "format": args.format,
        "k_max": getattr(args, "k_max", None),
        "facets": getattr(args, "facets", None),
    }


def _emit(args, payload: dict, csv_body: str = None) -> int:
    envelope = {
        "command": sys.argv[1:],
        "config": _config(args),
        "payload": payload,
        "timing": {"lp_solves": lp.stats["solves"], "lp_pivots": lp.stats["pivots"]},
    }
    if args.format == "csv" and csv_body is not None:
        sys.stdout.write(csv_body)
    else:
        print(dump_json(envelope))
    return 0


def _in_mode(args, *groups) -> list:
    """Groups of observables (or state spaces) in the requested arithmetic:
    `--mode float` converts every item, `--mode exact` refuses float data,
    and without `--mode` one float item makes every item float."""
    floats = any(x.kind == FLOAT for group in groups for x in group)
    if args.mode == EXACT and floats:
        raise ValueError("exact mode requested for float data")
    if args.mode == FLOAT or floats:
        return [[x.as_float() for x in group] for group in groups]
    return [list(group) for group in groups]


# -- space ---------------------------------------------------------------

def cmd_space(args) -> int:
    [[space]] = _in_mode(args, [load_space(args.file)])
    tol = _tolerance(args)
    if args.action == "validate":
        diag = validate_state_space(space, tol)
        return _emit(args, {"valid": diag.valid, "issues": list(diag.issues)})
    rays = extreme_rays(space.extreme_states, mode=space.mode, tol=tol)
    return _emit(args, {"rays": [encode_vector(r) for r in rays]},
                 csv_text(["ray"], [[" ".join(map(str, encode_vector(r)))]
                                    for r in rays]))


# -- sim -------------------------------------------------------------------

def cmd_sim(args) -> int:
    tol = _tolerance(args)
    space = load_space(args.space) if args.space else None
    targets, space = load_observables(args.target, space)

    if args.action == "check":
        if not args.simulators:
            raise ValueError("sim check needs --simulators FILE")
        sims, _ = load_observables(args.simulators, space)
        targets, sims = _in_mode(args, targets, sims)
        target = targets[0]
        if args.verify:
            cert = certificate_from_json(load_json(args.verify))
            return _emit(args, {"verified":
                                replay_simulation(cert, target, sims, tol)})
        cert = is_simulable(target, sims, tol)
        return _emit(args, {"verdict": cert.verdict,
                            "certificate": certificate_to_json(cert),
                            "replay": replay_simulation(cert, target, sims, tol)})

    if args.action == "smin":
        if not args.pool:
            raise ValueError("sim smin needs --pool FILE")
        pool, _ = load_observables(args.pool, space)
        targets, pool = _in_mode(args, targets, pool)
        k = smin(targets, pool, k_max=args.k_max, tol=tol)
        return _emit(args, {"smin": k if k is not None
                            else f"unknown above k_max={args.k_max}"})

    (targets,) = _in_mode(args, targets)
    target = targets[0]
    if target.space is None:
        raise ValueError(f"sim {args.action} needs a state space (--space FILE)")
    if args.action == "irreducible":
        return _emit(args, {"simulation_irreducible": is_simulation_irreducible(target, tol)})
    if args.action == "decompose":
        dec = decompose_to_irreducibles(target, tol)
        return _emit(args, {
            "irreducibles": [observable_to_json(o) for o in dec.observables],
            "certificate": certificate_to_json(dec.certificate),
            "splits": dec.splits,
            "replay": replay_simulation(dec.certificate, target,
                                        list(dec.observables), tol),
        })
    if args.action == "noise":
        res = noise_content(target, tol)
        return _emit(args, {"noise_content": encode_number(res.value),
                            "trivial_weights": encode_vector(res.trivial_weights)})
    raise ValueError(f"unknown sim action {args.action!r}")


# -- polygon -----------------------------------------------------------------

def _count_row(n: int):
    cat = polygon_irreducibles(n)
    formula = irreducible_count_formula(n)
    return (n, cat.dichotomic_count, cat.trichotomic_count, cat.count, formula,
            cat.count == formula)


def cmd_polygon(args) -> int:
    if args.action == "build":
        theory = polygon(args.n)
        payload = {
            "space": space_to_json(theory.space),
            "extreme_effects": [encode_vector(e) for e in theory.extreme_effects],
            "dichotomic_observables": [observable_to_json(o)
                                       for o in theory.dichotomic_observables],
        }
        if theory.f_effects is not None:
            payload["f_effects"] = [encode_vector(e) for e in theory.f_effects]
        return _emit(args, payload)
    if args.action == "irreducibles":
        cat = polygon_irreducibles(args.n)
        payload = {
            "n": args.n,
            "count": cat.count,
            "dichotomic": cat.dichotomic_count,
            "trichotomic": cat.trichotomic_count,
            "formula": irreducible_count_formula(args.n),
            "observables": [observable_to_json(o) for o in cat.observables],
        }
        return _emit(args, payload)
    if args.action == "counts":
        if args.n_max < 3:
            raise ValueError("--n-max must be at least 3")
        rows = [_count_row(n) for n in range(3, args.n_max + 1)]
        header = ["n", "dichotomic", "trichotomic", "enumerated", "formula", "match"]
        payload = {"rows": [dict(zip(header, r)) for r in rows],
                   "all_match": all(r[-1] for r in rows)}
        return _emit(args, payload, csv_text(header, rows))
    raise ValueError(f"unknown polygon action {args.action!r}")


# -- qubit -------------------------------------------------------------------

def cmd_qubit(args) -> int:
    tol = _tolerance(args)
    suite = qubit_suite()
    if args.action == "octahedron":
        if args.obs:
            observables, space = load_observables(args.obs)
            qubit = isinstance(space, QubitSpace)
            if len(observables) != 1 or not qubit:
                raise ValueError(
                    f"{args.obs}: octahedron needs exactly one qubit observable, found "
                    f"{len(observables)} {'qubit' if qubit else 'non-qubit'} observable(s)")
            obs = observables[0]
        elif args.t is not None:
            obs = suite.ct(args.t)
        else:
            raise ValueError("octahedron needs --obs FILE or --t VALUE")
        results = octahedron_test(obs, tol)
        return _emit(args, {"per_effect": results,
                            "all_pass": all(results.values())})
    if args.action == "compat-bracket":
        if args.targets == "xyz":
            lo, hi = xyz_threshold_bracket(facets=args.facets, t_tol=args.t_tol,
                                           tol=tol)
            return _emit(args, {"family": "xyz", "facets": args.facets,
                                "lower": lo, "upper": hi, "width": hi - lo})
        observables, _ = load_observables(args.targets)
        res = qubit_compatibility_bracket(observables, facets=args.facets, tol=tol)
        return _emit(args, {"verdict": res.verdict, "facets": args.facets})
    if args.action == "suite":
        payload = {
            "X": qubit_observable_to_json(suite.X),
            "Y": qubit_observable_to_json(suite.Y),
            "Z": qubit_observable_to_json(suite.Z),
            "T": qubit_observable_to_json(suite.T),
            "tetrahedron": qubit_observable_to_json(suite.tetrahedron),
        }
        if args.t is not None:
            payload["Xt"] = qubit_observable_to_json(suite.xt(args.t))
            payload["Yt"] = qubit_observable_to_json(suite.yt(args.t))
            payload["Zt"] = qubit_observable_to_json(suite.zt(args.t))
            payload["Ct"] = qubit_observable_to_json(suite.ct(args.t))
        return _emit(args, payload)
    raise ValueError(f"unknown qubit action {args.action!r}")


# -- reproduce ----------------------------------------------------------------

def cmd_reproduce(args) -> int:
    if args.id == "all":
        results = run_all()
    else:
        if args.id not in CRITERIA:
            print(f"unknown criterion id {args.id!r}; known: {', '.join(CRITERIA)}",
                  file=sys.stderr)
            return 2
        results = [run_criterion(args.id)]
    rows = [(r.id, "pass" if r.passed else "FAIL", r.details) for r in results]
    payload = {"results": [{"id": r.id, "passed": r.passed, "details": r.details}
                           for r in results],
               "all_passed": all(r.passed for r in results)}
    for rid, status, _ in rows:
        print(f"[{status}] {rid}", file=sys.stderr)
    code = _emit(args, payload, csv_text(["id", "status", "details"], rows))
    if not payload["all_passed"]:
        return 1
    return code


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=[EXACT, FLOAT], default=None,
                        help="force the arithmetic mode (default: inferred)")
    common.add_argument("--eps", type=float, default=None,
                        help="override the float-mode tolerance")
    common.add_argument("--format", choices=["json", "csv"], default="json")

    parser = argparse.ArgumentParser(
        prog="gptsim",
        description="Observable simulability on convex operational state spaces.")
    sub = parser.add_subparsers(dest="group", required=True)

    p_space = sub.add_parser("space", parents=[common],
                             help="validate a state space or list its rays")
    p_space.add_argument("action", choices=["validate", "rays"])
    p_space.add_argument("file")
    p_space.set_defaults(fn=cmd_space)

    p_sim = sub.add_parser("sim", parents=[common], help="simulability decisions")
    p_sim.add_argument("action",
                       choices=["check", "irreducible", "decompose", "smin", "noise"],
                       help="decompose prints the irreducible leaves, their certificate"
                            " and splits, which is leaves - 1")
    p_sim.add_argument("--target", required=True)
    p_sim.add_argument("--simulators")
    p_sim.add_argument("--pool")
    p_sim.add_argument("--space")
    p_sim.add_argument("--k-max", type=int, default=4, dest="k_max")
    p_sim.add_argument("--verify", help="replay a stored certificate file")
    p_sim.set_defaults(fn=cmd_sim)

    p_poly = sub.add_parser("polygon", parents=[common],
                            help="polygon theories and catalogs")
    p_poly.add_argument("action", choices=["build", "irreducibles", "counts"])
    p_poly.add_argument("--n", type=int, default=5)
    p_poly.add_argument("--n-max", type=int, default=12, dest="n_max")
    p_poly.set_defaults(fn=cmd_polygon)

    p_qubit = sub.add_parser("qubit", parents=[common], help="qubit example suite")
    p_qubit.add_argument("action", choices=["octahedron", "compat-bracket", "suite"])
    p_qubit.add_argument("--obs")
    p_qubit.add_argument("--t", type=float, default=None)
    p_qubit.add_argument("--targets", default="xyz")
    p_qubit.add_argument("--facets", type=int, default=128)
    p_qubit.add_argument("--t-tol", type=float, default=4e-3, dest="t_tol")
    p_qubit.set_defaults(fn=cmd_qubit)

    p_rep = sub.add_parser("reproduce", parents=[common],
                           help="run the acceptance suite")
    p_rep.add_argument("id", nargs="?", default="all")
    p_rep.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    lp.reset_stats()
    dual_cone_rays.cache_clear()
    try:
        return args.fn(args)
    except SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, ModeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
