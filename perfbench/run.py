"""Benchmark of the autbound engines: one workload per invocation.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0

Each invocation is a fresh interpreter that loads autbound from ../src
without installing it, builds the catalog records its workload needs,
makes seeded inputs and repeats whole passes over the workload's
operations until --seconds have passed (at least one pass).  Every answer
is then checked against refs.py and against the other passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones, from passes run under tracer.py after one
untraced reference pass.  The line before it stamps the run with the
Python version, rational backend, core count and commit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("closure", "bsgs", "invariants", "calculus")
# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 11


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time one import-and-build in this interpreter, print it and exit
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load(workload: str, tracer=None):
    """Import autbound and build the workload's records; returns the
    workload, its records and the seconds taken."""
    start = time.perf_counter()
    import workloads

    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[workload]
    built = wl.setup()
    return wl, built, time.perf_counter() - start


def setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def run_pass(ops, problems: list | None = None) -> tuple[float, dict, dict]:
    """One pass: (seconds inside the operations, answers, failures) by
    operation name.  Given `problems`, each answer is checked right after
    its operation, outside the timed region.  No raw result outlives its
    operation, so peak memory is that of the largest single operation."""
    gc.collect()
    busy = 0.0
    answers, failures = {}, {}
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as err:  # a raising operation counts as failed
            busy += time.perf_counter() - start
            failures[op.name] = f"{type(err).__name__}: {err}"
            continue
        busy += time.perf_counter() - start
        answers[op.name] = op.answer(raw)
        if problems is not None:
            problems += [f"{op.name}: {p}" for p in op.check(answers[op.name], raw)]
        del raw
    return busy, answers, failures


def stamp() -> dict:
    cyclo = sys.modules["autbound.cyclo"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "autbound").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "rational_backend": f"{cyclo.QQ.__module__}.{cyclo.QQ.__name__}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autbound" / "__init__.py").is_file():
        print(f"autbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(load(args.workload)[2])
        return 0

    tracer = tracing.Tracer() if args.trace else None
    wl, built, main_setup = load(args.workload, tracer)
    if tracer is not None:
        tracer.uninstall()
        setup_mark = tracer.snapshot()
    setup = setup_samples(args)
    ops = wl.ops(built, random.Random(args.seed))

    passes = []  # (seconds, answers, failures, traced)
    problems: list[str] = []
    layer_samples = []

    def one_pass(traced: bool) -> float:
        if traced:
            before = tracer.snapshot()
            tracer.install()
        wall, answers, failures = run_pass(ops, None if passes else problems)
        if traced:
            tracer.uninstall()
            after = tracer.snapshot()
            counts = {k: setup_mark[1][k] + after[1][k] - before[1][k] for k in after[1]}
            layer_samples.append(tracing.layer_metrics(
                tracer.spans, [(0, setup_mark[0]), (before[0], after[0])], counts))
        passes.append((wall, answers, failures, traced))
        print(f"pass {len(passes)}{' traced' if traced else ''}: {wall:.3f} s, "
              f"{len(failures)} failed", file=sys.stderr)
        return wall

    if tracer is not None:
        one_pass(traced=False)  # untraced reference for answers and overhead
    elapsed = 0.0
    while True:
        elapsed += one_pass(traced=tracer is not None)
        if elapsed >= args.seconds:
            break

    # -- checks beyond the first pass's own ------------------------------
    ref = passes[0][1]
    for i, (_wall, answers, failures, _traced) in enumerate(passes):
        problems += [f"{name}: pass {i + 1} answer differs from pass 1"
                     for name, ans in answers.items() if name in ref and ans != ref[name]]
        if not failures:
            problems += wl.cross_check(answers)
        for name, err in failures.items():
            print(f"FAILED pass {i + 1} {name}: {err}", file=sys.stderr)
    failed = sum(len(p[2]) for p in passes)

    # -- metrics -----------------------------------------------------------
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(p[0] for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = [p[0] for p in passes if p[3]]
        values = {name: statistics.median_low(s[name] for s in layer_samples) for name in layer_samples[0]}
        values["trace.overhead_s"] = statistics.median(traced) - passes[0][0]
        values["groups.closure_bytes_per_element"] = 0.0
        if wl.memory_probe is not None:
            op = next(o for o in ops if o.name == wl.memory_probe)
            tracemalloc.start()
            raw = op.run()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            values["groups.closure_bytes_per_element"] = peak / raw.order
            if op.answer(raw) != ref.get(op.name):
                problems.append(f"{op.name}: answer under tracemalloc differs")
        metrics = {name: (values[name], unit) for name, unit in tracing.UNITS.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for i, (name, layer, parent, t0, t1, work) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "parent": parent,
                                     "start": t0, "end": t1, "work": work}) + "\n")

    for line in problems[:40]:
        print(f"CHECK {line}", file=sys.stderr)
    info = dict(stamp(), workload=args.workload, seed=args.seed, trace=args.trace,
                passes=[round(p[0], 6) for p in passes], setup_samples=setup,
                main_setup_s=main_setup, operations_per_pass=len(ops), problems=len(problems))
    print(json.dumps({"stamp": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
