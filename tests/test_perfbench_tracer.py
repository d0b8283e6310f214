"""Smoke test for the benchmark tracer (``perfbench/tracer.py``): it still
finds and counts the functions it wraps by name, and puts every original
binding back when uninstalled."""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from qvote import backends, protocols

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound in a qvote module, and every backend method."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qvote" or name.startswith("qvote."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[name, attr] = obj
    for cls in (backends.DenseBackend, backends.BranchBackend):
        out.update({(cls.__name__, attr): obj for attr, obj in vars(cls).items()})
    return out


def test_tracer_counts_tallies_and_uninstalls():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()  # imports every layer module first
    tracer.uninstall()
    before = _bindings()
    tracer.install()
    try:
        cfg = protocols.ProtocolConfig(D=4, N=3, scheme="distributed")
        # Recorded, the branch tally plays each step; the counts below describe that path.
        for backend in ("branch", "dense"):
            result = protocols.run_distributed(cfg, [1, 0, 1], backend, rng=np.random.default_rng(0),
                                               record_states=backend == "branch")
            assert result.m == 2
        measured = tracer.metrics()["backends.op.measure_targets"]
        # Unrecorded, it runs in the label frame: no backend measurement.
        assert protocols.run_distributed(cfg, [1, 0, 1], "branch", rng=np.random.default_rng(0)).m == 2
        assert tracer.metrics()["backends.op.measure_targets"] == measured
        # The cached ballot needs no norm walk, so score one target to reach branch_inner.
        branch = backends.get_backend("branch")
        ballot = branch.ghz(4, 3)
        assert abs(branch.target_probability(ballot, ballot) - 1.0) <= 1e-12
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["branches.branch_measure.calls"] == 1
    assert metrics["branches.branch_inner.calls"] >= 1
    # Two yes votes on each backend, and the scored ballot.
    for op, calls in {"ghz": 3, "apply_local": 4, "measure_targets": 2, "target_probability": 1}.items():
        assert metrics[f"backends.op.{op}"] == calls
    # The tracer reads ``cls.__dict__[op]`` on both backend classes.
    assert set(tracer_module.BACKEND_OPS) <= set(vars(backends.BranchBackend))
    assert set(tracer_module.BACKEND_OPS) <= set(vars(backends.DenseBackend))
    assert _bindings() == before
