"""Scenario execution and report emission for the CLI.

Every per-scheme and per-attack fact comes from the registry entries in
:mod:`qvote.scenario`; this module only drives them. Reports are
deterministic given (scenario, seed): trial RNG streams are spawned from the
seed in a fixed order, one per trial, and the json-lines serialization
carries no timing data, so re-running a scenario reproduces it byte for byte.
The trials of one input vector are played as one batch, which gives each
trial the record it would get alone. Wall-clock time appears only in the
text rendering.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .scenario import ATTACKS, SCHEMES, ScenarioConfig, ScenarioError, amplitude_agreement, validate

# Cases one sweep may run; every shipped sweep runs at most 27.
SWEEP_CASE_BUDGET = 4096


class SweepBudgetError(ValueError):
    """A sweep would run more than SWEEP_CASE_BUDGET cases."""


@dataclass
class RunReport:
    scenario: dict
    command: str
    backend: str
    seed: int
    summary: dict = field(default_factory=dict)
    trial_records: list[dict] = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    passed: bool = True
    wall_clock: float = 0.0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _backends(cfg: ScenarioConfig) -> list[str]:
    return ["dense", "branch"] if cfg.backend == "both" else [cfg.backend]


def _trial_votes(cfg: ScenarioConfig, rng) -> list[int] | None:
    if cfg.yes_rate is None:
        return cfg.votes
    return [int(v) for v in rng.random(cfg.N) < cfg.yes_rate]


def _trial_records(cfg: ScenarioConfig, backend: str) -> list[dict]:
    """Every trial of an honest run on one backend, in trial order. Trial i draws its
    votes (under a 'yes_rate') and then its outcome from its own spawned stream; the
    trials that share an input vector are played as one batch, one after another."""
    scheme = SCHEMES[cfg.scheme]
    streams = np.random.default_rng(cfg.seed).spawn(cfg.trials)
    votes = [_trial_votes(cfg, rng) for rng in streams]
    batches: dict[tuple | None, list[int]] = {}
    for i, v in enumerate(votes):
        batches.setdefault(None if v is None else tuple(v), []).append(i)
    records: list = [None] * cfg.trials
    for trials in batches.values():
        played = scheme.play(cfg, votes[trials[0]], backend, [streams[i] for i in trials])
        for i, rec in zip(trials, played):
            records[i] = dict(rec, trial=i, backend=backend)
    return records


def _run_honest(cfg: ScenarioConfig, report: RunReport) -> None:
    scheme = SCHEMES[cfg.scheme]
    backends = _backends(cfg)
    per_backend = {backend: _trial_records(cfg, backend) for backend in backends}
    canonical = per_backend[backends[0]]
    report.trial_records = canonical

    if cfg.backend == "both":
        mismatches = sum(
            a != dict(b, backend="dense") for a, b in zip(per_backend["dense"], per_backend["branch"])
        )
        report.invariants["backend_outcomes_equal"] = {
            "passed": mismatches == 0,
            "mismatches": mismatches,
        }
        amp = amplitude_agreement(cfg)
        report.invariants["backend_amplitude_deviation"] = amp
        report.passed = report.passed and mismatches == 0 and amp["passed"]

    key = scheme.outcome_key
    hist = dict(Counter(str(rec[key]) for rec in canonical))
    report.summary = {"outcome_histogram": hist, "outcome_key": key, "trials": len(canonical)}
    if cfg.votes is not None:
        report.summary["expected"] = sum(cfg.votes)


def _run_attack(cfg: ScenarioConfig, report: RunReport) -> None:
    backend = "dense" if cfg.backend == "both" else cfg.backend
    run = ATTACKS[cfg.attack.kind].run(cfg)
    summary, report.trial_records = run(backend, np.random.default_rng(cfg.seed))
    report.summary = _jsonable(summary)


def _run_verify(cfg: ScenarioConfig, report: RunReport) -> None:
    checks = SCHEMES[cfg.scheme].checks(cfg)
    report.invariants = checks
    report.passed = all(c["passed"] for c in checks.values())
    report.summary = {"checks": len(checks), "failed": [k for k, c in checks.items() if not c["passed"]]}


def _run_sweep(cfg: ScenarioConfig, report: RunReport) -> None:
    scheme = SCHEMES[cfg.scheme]
    backends = _backends(cfg)
    failures = []
    cases = 0
    for params in scheme.sweep(cfg):
        cases += 1
        case = replace(cfg, yes_rate=None, **params)
        expected = scheme.expected(case)
        for backend in backends:
            rng = np.random.default_rng(cfg.seed)
            got = scheme.trial(case, case.votes, backend, rng)[scheme.outcome_key]
            if got != expected:
                failures.append({"case": params, "backend": backend, "expected": expected, "got": got})
            report.trial_records.append(
                dict(_jsonable(params), backend=backend, expected=expected, got=got)
            )
    report.summary = {"cases": cases, "backends": backends, "failures": len(failures)}
    report.invariants["sweep_failures"] = {"passed": not failures, "failures": failures[:10]}
    report.passed = not failures


def execute(cfg: ScenarioConfig, command: str = "run") -> RunReport:
    """Run a parsed scenario; command selects the engine (run/verify/sweep).

    verify and sweep run the honest scheme, so a scenario with an [attack]
    must also be valid without it; sweep needs a scheme with sweep cases.
    Both are reported as :class:`ScenarioError`. A sweep of more than
    :data:`SWEEP_CASE_BUDGET` cases raises :class:`SweepBudgetError` before
    any case runs.
    """
    start = time.perf_counter()
    scheme = SCHEMES[cfg.scheme]
    if command == "sweep" and scheme.sweep is None:
        raise ScenarioError(f"sweep does not support scheme {cfg.scheme!r}")
    if command in ("verify", "sweep") and cfg.attack is not None:
        try:
            validate(replace(cfg, attack=None))
        except ScenarioError as exc:
            raise ScenarioError(f"{command} runs the honest scheme: {exc}") from None
    if command == "sweep" and (cases := scheme.cases(cfg)) > SWEEP_CASE_BUDGET:
        raise SweepBudgetError(f"sweep would run {cases} cases (budget {SWEEP_CASE_BUDGET})")
    report = RunReport(
        scenario=_jsonable(cfg.raw), command=command, backend=cfg.backend, seed=cfg.seed
    )
    if command == "verify":
        _run_verify(cfg, report)
    elif command == "sweep":
        _run_sweep(cfg, report)
    elif cfg.attack is not None:
        _run_attack(cfg, report)
    else:
        _run_honest(cfg, report)
    report.wall_clock = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# serialization


def emit_report(report: RunReport, fmt: str = "text") -> bytes:
    """Render a report; json-lines output is deterministic for a fixed seed."""
    if fmt == "json-lines":
        lines = []
        for i, rec in enumerate(report.trial_records):
            body = dict(_jsonable(rec))
            body["record"] = "trial"
            lines.append(json.dumps(body, sort_keys=True))
        summary = {
            "record": "summary",
            "command": report.command,
            "backend": report.backend,
            "seed": report.seed,
            "scenario": report.scenario,
            "summary": _jsonable(report.summary),
            "invariants": _jsonable(report.invariants),
            "passed": report.passed,
        }
        lines.append(json.dumps(summary, sort_keys=True))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "text":
        out = [
            f"command:  {report.command}",
            f"backend:  {report.backend}",
            f"seed:     {report.seed}",
        ]
        for key, val in sorted(report.summary.items()):
            if key == "tv_vs_analytic":
                continue
            out.append(f"{key}: {val}")
        if "tv_vs_analytic" in report.summary:
            out.append(
                f"analytic-vs-empirical TV distance: {report.summary['tv_vs_analytic']:.6f}"
            )
        for name, chk in report.invariants.items():
            status = "ok" if chk.get("passed") else "FAILED"
            detail = {k: v for k, v in chk.items() if k != "passed"}
            out.append(f"invariant {name}: {status} {detail}")
        out.append(f"passed:   {report.passed}")
        out.append(f"wall_clock_s: {report.wall_clock:.3f}")
        return ("\n".join(out) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
