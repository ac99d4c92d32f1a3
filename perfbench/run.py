"""gptsim benchmark: seeded decision workloads, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Load shape: one process per workload and one closed-loop caller, which
issues each decision after the previous one returns; no worker pool, and
BLAS/OpenMP thread pools are capped at one thread. A decision is one call to
a public decision function plus the replay of the certificate it returns.

--seconds sizes the work, not a deadline: a pass is a fixed number of
blocks of the seeded corpus (a block always holds the same mix of decision
kinds), as many as --seconds of closed-loop time takes on the reference
machine. So every version of the library answers the same decisions, and
the tail percentile below stays the same percentile.

--trace 0 measures the end-to-end metrics. Set-up is repeated and its
median reported. Then the caller runs the pass once. The host shares its
cores with other tenants and switches between a fast and a slow state
many times a second, in proportions that drift over minutes; so speed
ticks (speed.py) are taken between decisions, and every time measured
(a decision, a set-up) is scaled to the reference tick by the ticks taken
around it. Throughput is decisions over the sum of the scaled latencies.
The unscaled figures are printed beside the scaled ones. Every decision
is then checked against the workload's oracle.

--trace 1 runs a pass of --seconds/TRACE_SHARE untraced, traced and
untraced again, and reports the per-layer metrics of the traced pass and
the tracing overhead.

A decision fails when it raises, when its certificate fails replay, or when
its verdict contradicts the oracle; `failed` counts failed runs. `correct`
is false when a verdict contradicted an oracle or the float twin, that is,
when the library gave a wrong answer that its own replay did not catch.
Every run ends with one JSON line on stdout; details and spans go to
perfbench/out/.
"""

from __future__ import annotations

import os

# Cap native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
TRACE_SHARE = 4  # the traced run's pass is this share of --seconds, as it runs three times
END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
EXACT_COUNTS = ("lp.solves", "lp.pivots", "simulation.decompose.splits",
                "lp.cert_replay_failures", "lp.solver_limit_errors",
                "scalars.infer_mode.calls")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Wall time of `import gptsim` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gptsim; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_decision(decisions, i, spans, outcomes):
    d = decisions[i]
    t0 = time.perf_counter()
    try:
        outcomes.append((i, d.run(), None))
    except Exception as exc:  # every raise is a failed decision, reported below
        outcomes.append((i, None, f"{type(exc).__name__}: {exc}"))
    spans.append((t0, time.perf_counter()))


def execute(decisions, indices, tracer=None, probe=None):
    """Run the given decisions back to back: (wall seconds, (start, end) spans, outcomes).

    With a probe, speed ticks follow the decisions (speed.Probe.after).
    """
    # Objects alive now (the corpus, earlier results) belong to the
    # benchmark; freezing them keeps the cyclic collector from rescanning
    # them, so collections cost what the library's own allocations cost.
    gc.collect()
    gc.freeze()
    spans, outcomes = [], []
    start = time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.decision = i
        run_decision(decisions, i, spans, outcomes)
        if probe is not None:
            probe.after(spans[-1][1] - spans[-1][0])
    return time.perf_counter() - start, spans, outcomes


def judge(decisions, outcomes):
    """Apply every oracle to every run: (failures, verdict tally)."""
    failures = []
    tally = collections.Counter()
    twins = {}
    for i, result, error in outcomes:
        d = decisions[i]
        wrong = False
        if error is None:
            tally[f"{d.kind}: {d.verdict(result)}"] += 1
            if not d.replayed(result):
                error = "certificate failed replay"
            else:
                error = d.check(result)
                if error is None and d.twin is not None:
                    if i not in twins:
                        twins[i] = d.twin(result)
                    error = twins[i]
                wrong = error is not None
        if error is not None:
            failures.append({"decision": i, "kind": d.kind, "input": d.label,
                             "problem": error, "wrong_answer": wrong})
    return failures, dict(sorted(tally.items()))


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def build_pass(workload, seed, seconds):
    """The seeded corpus of one pass: whole blocks, about `seconds` of work."""
    blocks = max(1, round(workload.blocks_per_second * seconds))
    return workload.build(seed, blocks * workload.rounds_per_block)


def run_untraced(name, workload, seed, seconds):
    import gptsim
    import speed

    probe = speed.Probe()
    setup_spans, corpus = [], None
    for _ in range(SETUP_REPEATS):
        gptsim.dual_cone_rays.cache_clear()
        corpus = None  # release the previous copy before building the next
        probe.sample()
        start = time.perf_counter()
        imported = import_seconds()
        t0 = time.perf_counter()
        corpus = build_pass(workload, seed, seconds)
        end = time.perf_counter()
        setup_spans.append((start, end, imported + end - t0))
    probe.sample()
    setups = [took for _, _, took in setup_spans]
    scaled_setups = [took * probe.scale(t0, t1) for t0, t1, took in setup_spans]

    indices = range(len(corpus))
    probe.sample()
    _, spans, outcomes = execute(corpus, indices, probe=probe)
    probe.sample()
    raw_latency = [t1 - t0 for t0, t1 in spans]
    latency = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans]
    scale = sum(latency) / sum(raw_latency)

    failures, tally = judge(corpus, outcomes)
    bad = {f["decision"] for f in failures}
    completed = sum(1 for i in indices if i not in bad)
    value, pct = tail(latency)
    raw_value, _ = tail(raw_latency)
    metrics = {
        "decisions_per_s": completed / sum(latency),
        "decision_p50_ms": 1e3 * statistics.median(latency),
        "decision_tail_ms": 1e3 * value,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "decisions_per_s": f"{completed / sum(raw_latency):.6g}",
        "decision_p50_ms": f"{1e3 * statistics.median(raw_latency):.6g}",
        "decision_tail_ms": f"{1e3 * raw_value:.6g}",
        "setup_s": f"{statistics.median(setups):.6g}",
    }
    notes = {
        "decisions_per_s": f"{completed} of {len(indices)} decisions without failure, "
                           f"over {sum(latency):.3f} s of latency",
        "decision_p50_ms": f"median of {len(latency)} latencies",
        "decision_tail_ms": f"p{pct:.2f} of {len(latency)} samples, "
                            f"{10 if len(latency) > 10 else 0} beyond",
        "setup_s": f"median of {SETUP_REPEATS} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in scaled_setups),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for k, v in raw.items():
        notes[k] += f"; {v} {END_TO_END_UNITS[k]} unscaled"
    report = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    lines = [f"{k} = {v:.6g} {END_TO_END_UNITS[k]}  ({notes[k]})" for k, v in metrics.items()]
    lines.append(f"failed_ratio = {len(failures) / len(outcomes):.6g} ratio  "
                 f"({len(failures)} failed / {len(outcomes)} attempted runs)")
    lines.append(f"pass: {len(corpus)} decisions")
    ticks_ms = [1e3 * t for t in probe.took]
    lines.append(f"host speed: times above are scaled to a {1e3 * speed.REFERENCE_TICK_S:g} ms "
                 f"tick, by {scale:.4f} on the whole (scaled over raw time); "
                 f"{len(ticks_ms)} bursts, median tick {statistics.median(ticks_ms):.4f} ms")
    by_kind = collections.defaultdict(list)
    for i, took in zip(indices, latency):
        by_kind[corpus[i].kind].append(1e3 * took)
    details = {"tally": tally, "failures": failures, "unscaled": raw,
               "scale": scale, "ticks_ms": ticks_ms,
               "latency_ms_by_kind": {k: {"count": len(v), "p50": statistics.median(v),
                                          "max": max(v)}
                                      for k, v in sorted(by_kind.items())}}
    return report, lines, len(outcomes), failures, details


def run_traced(name, workload, seed, seconds):
    import tracer as tracing

    corpus = build_pass(workload, seed, seconds / TRACE_SHARE)
    indices = range(len(corpus))
    plain_wall, _, outcomes = execute(corpus, indices)

    tracer = tracing.Tracer()
    tracer.install()
    hits0, misses0 = tracing.cache_counts()
    tracer.active = True
    try:
        traced_wall, _, traced = execute(corpus, indices, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    hits1, misses1 = tracing.cache_counts()
    again_wall, _, again = execute(corpus, indices)
    outcomes += traced + again

    failures, tally = judge(corpus, outcomes)
    metrics, bases = tracer.layer_metrics(len(indices), (hits1 - hits0, misses1 - misses0))
    untraced = min(plain_wall, again_wall)
    metrics["trace.overhead_ratio"] = ((traced_wall - tracer.paused) / untraced, "ratio")
    bases["trace.overhead_ratio"] = (
        f"({traced_wall:.3f} s traced - {tracer.paused:.3f} s replay) / "
        f"{untraced:.3f} s, the faster of two untraced passes; {len(indices)} decisions")
    replay_failures = tracer.replay_failures()
    for rf in replay_failures:
        d = corpus[rf["decision"]]
        rf.update(kind=d.kind, input=d.label)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    report = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines = [f"{k} = {v:.6g} {u}" + (f"  ({bases[k]})" if k in bases else "")
             for k, (v, u) in metrics.items()]
    lines.append(f"failed_ratio = {len(failures) / len(outcomes):.6g} ratio  "
                 f"({len(failures)} failed / {len(outcomes)} attempted runs)")
    lines.append(f"traced pass: {len(indices)} decisions, {len(tracer.spans)} spans")
    details = {"tally": tally, "failures": failures,
               "counts": {k: metrics[k][0] for k in EXACT_COUNTS},
               "replay_failures": replay_failures}
    return report, lines, len(outcomes), failures, details


def run_one(args):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    report, lines, attempted, failures, details = runner(
        args.workload, workload, args.seed, args.seconds)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    listed = set()
    for f in failures:
        if (f["decision"], f["problem"]) not in listed:  # one line per input
            listed.add((f["decision"], f["problem"]))
            print(f"FAILED decision {f['decision']} [{f['kind']}] {f['input']}: "
                  f"{f['problem']}")
    for rf in details.get("replay_failures", ()):
        print(f"REPLAY FAILED decision {rf['decision']} [{rf['kind']}] {rf['input']}: "
              f"{rf['mode']} {rf['verdict']} outcome, {rf['rows']} rows")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "attempted": attempted, "metrics": report, **details}, fh, indent=1)
    correct = not any(f["wrong_answer"] for f in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import gptsim  # noqa: F401
    except ImportError as exc:
        print(f"cannot import gptsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
