"""qvote benchmark: seeded closed-loop workloads over the library's public API.

    python3 perfbench/run.py --workload branch-tally --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root. Each run starts fresh interpreters (see
``worker.py``): with ``--trace 0``, ``SETUPS - 1`` that only set up and one
that sets up and runs the timed closed loop; with ``--trace 1``, one that
sets up and runs the traced passes. Every metric is printed by name with its unit, followed by
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from ``BENCHMARK.json``; see ``README.md`` in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3         # fresh-interpreter set-ups per run; setup_s is their median
BUDGET_S = 170.0   # one invocation, all workers included
BLAS_THREADS = "1"


def _worker(workload, seed, seconds, mode, deadline) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    spawned = time.monotonic()
    timeout = None if deadline is None else max(1.0, deadline - spawned)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - spawned) * result["setup_scale"]
    result["raw_setup_s"] = result["ready"] - spawned
    return result


def run_workload(workload, seed, seconds, trace, deadline) -> tuple[dict, dict, list[str], int]:
    """Returns (metric values, notes printed beside them, failures, attempted)."""
    load_start = os.getloadavg()[0]
    count = 1 if trace else SETUPS  # a traced run reports no setup_s
    results = [_worker(workload, seed, seconds, "setup", deadline) for _ in range(count - 1)]
    final = _worker(workload, seed, seconds, "trace" if trace else "timed", deadline)
    results.append(final)
    setups = [r["setup_s"] for r in results]
    raw_setups = [r["raw_setup_s"] for r in results]
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    env = final["env"]
    notes = {"env": (f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
                     f"BLAS threads {env['blas_threads']}, nproc {os.cpu_count()}, "
                     f"load {load_start:.2f} -> {os.getloadavg()[0]:.2f}")}
    if trace:
        notes["spans"] = final["spans_file"]
        return final["layers"], notes, failures, attempted
    values = _end_to_end(final["latencies"], final, setups)
    raw = _end_to_end(final["raw_latencies"], final, raw_setups)
    lat = final["latencies"]
    beyond = sum(x * 1e3 > values["op_p95_ms"] for x in lat)
    notes["op_p95_ms"] = f"{len(lat)} samples, {beyond} beyond"
    notes["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in setups)
    notes["raw"] = ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb")
    notes["raw"] += f"; timed phase {final['wall']:.2f} s wall including probes and checks"
    return values, notes, failures, attempted


def _end_to_end(latencies, final, setups) -> dict:
    """The timed phase is the once-per-run ops, then whole cycles of one op
    list. Each op of the cycle counts at its median over the cycles, in the
    throughput and in the percentiles alike."""
    once, size = final["once"], final["cycle"]
    repeats = (len(latencies) - once) // size
    typical = latencies[:once] + [statistics.median(latencies[once + j::size])
                                  for j in range(size)] * repeats
    return {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p95_ms": statistics.quantiles(typical, n=20, method="inclusive")[-1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": final["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qvote" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a qvote checkout (src/qvote and BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    deadline = None if args.workload == "all" else time.monotonic() + BUDGET_S

    metrics, failures, attempted = {}, [], 0
    for workload in workloads:
        try:
            values, notes, fails, tried = run_workload(workload, args.seed, seconds,
                                                       args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        if set(values) != set(units):
            print(f"error: {workload} metrics do not match BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
            return 1
        print(f"workload {workload}  seed {args.seed}  seconds {seconds}  trace {args.trace}")
        print(f"  environment: {notes['env']}")
        if "spans" in notes:
            print(f"  spans written to {notes['spans']}")
        for name in units:
            extra = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:40s} {values[name]:>16.6g} {units[name]}{extra}")
        if "raw" in notes:
            print(f"  unnormalized wall times: {notes['raw']}")
        print(f"  {'ops_failed_frac':40s} {len(fails) / tried:>16.6g} "
              f"({len(fails)} of {tried} ops)")
        for fail in fails:
            print(f"  failed check: {fail}")
        key = (lambda n: n) if len(workloads) == 1 else (lambda n: f"{workload}/{n}")
        metrics.update({key(n): {"value": values[n], "unit": units[n]} for n in units})
        failures += fails
        attempted += tried
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
