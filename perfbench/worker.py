"""One workload run in a fresh interpreter; prints one JSON result line.

Started by ``run.py``. Modes:

* ``setup``: import qvote, generate the inputs, warm up each op shape, then
  report the moment the first timed op would start.
* ``timed``: the same set-up, then the closed loop (one client, each op
  starts after the previous one returns) over whole cycles of the op list:
  as many as take ``--seconds`` at ``workloads.CYCLE_S``, and at least
  ``MIN_OPS`` ops.
* ``trace``: the same set-up, one untraced pass over the cycle, the same
  pass again with the outside-in tracer installed, then the spot cases under
  the tracer. Passes have a fixed op list, so two traced runs with one seed
  report identical counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

_start = time.perf_counter()
import qvote.cli  # noqa: E402,F401  (imports every layer; reported as cli.import_s)

IMPORT_S = time.perf_counter() - _start

import hostspeed  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 300  # so that at least 10 timed samples lie beyond p95


class Loop:
    """Runs ops closed-loop: times the library call, probes host speed after
    it (and, with a sampler, during it; see ``hostspeed``) and checks the
    result outside the timing."""

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.over_1 = 0
        self.probes = [hostspeed.probe()]
        # (wall s less in-op probes, index of the probe before, in-op probe times)
        self.timings: list[tuple[float, int, list[float]]] = []

    def run(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.attempted += 1
        samples = self.sampler.samples if self.sampler is not None else []
        mark = len(samples)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            fails = [f"raised {type(exc).__name__}: {exc}"]
        else:
            fails = None
        end = time.perf_counter()
        inside = [d for t, d in samples[mark:] if t <= end]
        self.timings.append((end - start - sum(inside), len(self.probes) - 1, inside))
        if self.sampler is not None:
            self.sampler.paused = True
        self.probes.append(hostspeed.probe())
        if self.sampler is not None:
            self.sampler.paused = False
        if fails is None:
            fails = op.check(result)
        if fails:
            self.failures.append(f"{op.label}: " + "; ".join(fails))
        self.over_1 += op.stats.pop("pass_probability_over_1", 0)

    def normalized(self, first: int, last: int | None = None) -> list[float]:
        """Host-speed-normalized times of timings[first:last]."""
        return [wall * hostspeed.scale(self.probes, before, inside)
                for wall, before, inside in self.timings[first:last]]

    def setup_scale(self) -> float:
        """Factor for the set-up, from every probe taken so far."""
        every = self.probes + [p for _, _, inside in self.timings for p in inside]
        return hostspeed.factor(every)


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _warm_up_set(ops):
    smallest = {}
    for op in ops:
        if op.shape not in smallest or op.size < smallest[op.shape].size:
            smallest[op.shape] = op
    return list(smallest.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cycle = workloads.BUILDERS[args.workload](args.seed, workdir)
        once = (workloads.shipped_attacks(ROOT / "scenarios", workdir)
                if args.workload == "attack-trials" else [])
        # the in-op sampler stays off in traced runs so spans hold only qvote time
        with contextlib.ExitStack() as stack:
            sampler = None if args.mode == "trace" else stack.enter_context(hostspeed.Sampler())
            loop = Loop(sampler)
            for op in _warm_up_set(cycle + once):
                loop.run(op)
            out = {"ready": time.monotonic(), "env": _environment(),
                   "setup_scale": loop.setup_scale()}
            if args.mode == "timed":
                cycles = max(math.ceil(MIN_OPS / len(cycle)),
                             round(args.seconds / workloads.CYCLE_S[args.workload]))
                out.update(_timed(loop, cycle, once, cycles))
            elif args.mode == "trace":
                out.update(_traced(loop, cycle + once, args, workdir))
                out["layers"]["cli.import_s"] = IMPORT_S
        out.update(attempted=loop.attempted, failures=loop.failures,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _timed(loop, cycle, once, cycles) -> dict:
    begin = time.perf_counter()
    first = len(loop.timings)
    for op in once + cycle * cycles:
        loop.run(op)
    return {"latencies": loop.normalized(first), "wall": time.perf_counter() - begin,
            "once": len(once), "cycle": len(cycle),
            "raw_latencies": [w for w, _, _ in loop.timings[first:]]}


def _traced(loop, ops, args, workdir) -> dict:
    from tracer import Tracer

    first = len(loop.timings)
    for op in ops:
        loop.run(op)
    untraced = sum(loop.normalized(first))

    cases = workloads.spot_cases(args.seed, ROOT / "scenarios", workdir)
    tracer = Tracer()
    loop.tracer = tracer
    loop.over_1 = 0
    tracer.install()
    try:
        first = len(loop.timings)
        for op in ops:
            loop.run(op)
        traced = sum(loop.normalized(first))
        metrics = tracer.metrics()  # the workload's pass only; spot cases are timed below
        metrics["attacks.pass_probability_over_1"] = loop.over_1
        for name, unit, op in cases:
            loop.run(op)
        spot_times = loop.normalized(len(loop.timings) - len(cases))
    finally:
        tracer.uninstall()
    metrics.update({name: t * unit for (name, unit, _), t in zip(cases, spot_times)})
    metrics["trace.slowdown"] = traced / untraced
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write(spans)
    return {"layers": metrics, "spans_file": str(spans.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main())
