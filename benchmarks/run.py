"""Benchmark for the nonavg package: one workload per run, one JSON line out.

    python3 benchmarks/run.py --workload generate --seed 1 --seconds 30 --trace 0

The run repeats the workload's fixed operation list in whole rounds until
``--seconds`` have passed, timing each operation, and checks every output
against the benchmark's own arithmetic (see checks.py).  It sets the
workload up (fresh import, inputs, warm-up) several times, spread over the
run, and reports the median set-up time.  With ``--trace 1`` the same rounds
run with spans around the calls into each module, and the per-layer figures
are printed instead of the end-to-end ones.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_SETUP = {
    "generate": workloads.build_generate,
    "catalog": workloads.build_catalog,
    "count": workloads.build_count,
    "resume": workloads.build_resume,
}
SETUP_REPEATS = 7
# op_tail_ms is the highest of these percentiles with at least ten samples
# beyond it.  They are spaced wide, so that a run a little faster or slower
# than another, with a few more or fewer rounds, reports the same percentile.
TAIL_PERCENTILES = (99.9, 90, 75)
MIN_TAIL_SAMPLES = 40


def fresh_import():
    """Import the package from this checkout's source, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "nonavg" or n.startswith("nonavg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("nonavg")
    importlib.import_module("nonavg.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "nonavg":
        raise ImportError(f"nonavg was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def tail(latencies, runs_each):
    """(percentile, value) of ``latencies``, each counted ``runs_each`` times: the
    highest of TAIL_PERCENTILES with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered) * runs_each
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[math.ceil(rank / runs_each) - 1]
    raise ValueError(f"{n} samples are too few for a tail")


class Run:
    """Counts and timings of the measured rounds.

    The machine's speed drifts by half, in phases of a few tenths of a
    second, with the load of other tenants; that only ever adds time.  An
    operation's latency is therefore its fastest run: every operation runs
    many times, and the operations are short, so that run falls in a fast
    phase.  The variance left between runs of one operation is the
    machine's, not the program's.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.correct = True
        self.rounds = 0
        self.best_wall = [math.inf] * len(ops)
        self.best_cpu = [math.inf] * len(ops)
        self.units = [0] * len(ops)
        self.verified = {}
        self.reported = set()

    def check(self, i, output):
        """Verify an operation's first output; later passes must repeat it exactly.

        Only a digest of the first output is kept, so that the benchmark's own
        objects do not add to the program's memory or garbage-collection work.
        """
        op = self.ops[i]
        digest = hashlib.sha256(pickle.dumps(output)).digest()
        if i in self.verified:
            first, error = self.verified[i]
            if digest != first:
                error = "output differs from the verified pass"
        else:
            error = op.verify(output)
            self.verified[i] = (digest, error)
            self.units[i] = op.units(output)
        if error:
            self.failed += 1
            if not op.known_fault:
                self.correct = False
            if (op.name, error) not in self.reported:
                self.reported.add((op.name, error))
                kind = "known fault" if op.known_fault else "WRONG"
                print(f"{kind}: {op.name}: {error}", file=sys.stderr)

    def round(self, workload, tracer):
        gc.collect()  # so that the last round's garbage is not collected inside a timed operation
        if tracer:
            tracer.begin_round()
        for _ in range(workload.passes):
            for i, op in enumerate(self.ops):
                self.attempted += 1
                try:
                    if op.before:
                        op.before()
                    if tracer:
                        tracer.on = True
                    w0, c0 = perf_counter(), process_time()
                    output = op.run()
                    c1, w1 = process_time(), perf_counter()
                    if tracer:
                        tracer.on = False
                    if op.after:
                        output = op.after(output)
                except Exception:
                    traceback.print_exc()
                    self.failed += 1
                    self.correct = False
                    continue
                finally:
                    if tracer:
                        tracer.on = False
                self.best_wall[i] = min(self.best_wall[i], w1 - w0)
                self.best_cpu[i] = min(self.best_cpu[i], c1 - c0)
                self.check(i, output)
        if tracer:
            tracer.end_round()
        self.rounds += 1


def end_to_end(run, setups, passes, peak_kb):
    wall = passes * sum(run.best_wall)
    latencies = [t for t in run.best_wall if t < math.inf]
    p, tail_s = tail(latencies, passes * run.rounds)
    n_ops = passes * len(run.ops)
    print(f"# {run.rounds} rounds of {n_ops} operations; op_tail_ms is p{p} of {run.attempted}",
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (passes * sum(run.best_cpu), "s"),
        "ops_per_s": (n_ops / wall, "1/s"),
        "work_per_s": (passes * sum(run.units) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


UNITS = {"calls": "count", "candidates": "count", "terms": "count", "nodes": "count", "nodes_max": "count",
         "prefixes_tried": "count", "completeness_calls": "count", "cells": "count", "spans": "count",
         "cache_bytes": "B", "bytes_out": "B"}


def _unit(key):
    last = key.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    return UNITS.get(last, "ratio")


def per_layer(tracer, run, passes):
    metrics = tracer.metrics()
    metrics["traced.wall_s"] = passes * sum(run.best_wall)  # wall_s of the traced run
    return {key: (value, _unit(key)) for key, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonavg" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'nonavg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        build = WORKLOAD_SETUP[args.workload]
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        setups, run = [], None
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            # The set-ups are spread evenly over the run, so that their median
            # does not rest on one phase of the machine (see Run).  A set-up is
            # timed in process CPU time: other processes on this shared machine
            # take the processor for tenths of a second at a time, and a
            # set-up, unlike an operation, is not repeated often enough for
            # its fastest run to dodge them.
            if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
                c0 = process_time()
                pkg = fresh_import()
                workload = build(pkg, args.seed, workdir)
                setups.append(process_time() - c0)
                if tracer:
                    tracer.install(pkg)
                if run is None:
                    run = Run(workload.ops)
                else:
                    run.ops = workload.ops  # the same operations, from the fresh import
                continue
            if elapsed >= args.seconds and run.attempted >= MIN_TAIL_SAMPLES:
                break
            run.round(workload, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if tracer:
            metrics = per_layer(tracer, run, workload.passes)
            results = BENCH_DIR / "results"
            results.mkdir(exist_ok=True)
            tracer.write(results / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            metrics = end_to_end(run, setups, workload.passes, peak_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
