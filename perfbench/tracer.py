"""Outside-in tracer: span wrappers installed around qvote's public functions.

``src/`` is not edited. Installing wraps every public module-level function
of each layer module, the methods of both backend classes and the
``PhasePOVM`` constructor, and rebinds the wrapper in every ``qvote.*``
namespace that holds the original (modules import with ``from .x import
name``, so ``runner``, ``protocols``, ``attacks`` and ``groups`` keep their
own references). ``uninstall`` restores every original binding.

A span is (name, layer, start, end, parent span, op id, raised). Spans stay
in memory and are written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("states", "branches", "backends", "protocols", "groups", "anticheat",
          "attacks", "scenario", "runner", "cli")
BACKEND_OPS = ("ghz", "from_branches", "attach", "apply_local", "apply_pair", "controlled_shift",
               "swap", "measure_targets", "measure_diag", "measure_local_kets", "reduced",
               "amplitudes", "drop", "dims", "project_diag", "project_ket", "target_probability")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []          # [span id, child time]
        self.calls = defaultdict(int)         # per span name
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.marks = defaultdict(int)         # high-water marks and counters from results
        self._bindings: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, observe):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans

        def span(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            raised = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (name, layer, start, end, parent, self.op_id, raised)
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if raised:
                    self.errors[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = fn.__doc__
        return span

    def install(self) -> None:
        from qvote.attacks import AttackReport, PhasePOVM
        from qvote.anticheat import ReadoutResult
        from qvote.branches import BranchState
        from qvote.states import DenseState, DensityMatrix

        marks = self.marks

        def note_state(obj):
            if isinstance(obj, BranchState):
                marks["branches.max_branches"] = max(marks["branches.max_branches"],
                                                     len(obj.branches))
            elif isinstance(obj, DenseState):
                marks["states.max_amps"] = max(marks["states.max_amps"], obj.amps.size)
                return obj.amps.nbytes
            elif isinstance(obj, DensityMatrix):
                return obj.matrix.nbytes
            elif isinstance(obj, tuple):
                return sum(note_state(o) or 0 for o in obj)
            return 0

        def observe_states(args, result):
            moved = note_state(result) or 0
            moved += sum(note_state(a) or 0 for a in args
                         if isinstance(a, (DenseState, DensityMatrix)))
            marks["states.bytes_computed"] += moved

        def observe_states_of_result(args, result):
            note_state(result)

        def observe_attacks(args, result):
            if isinstance(result, AttackReport):
                marks["attacks.trials"] += result.trials
            elif isinstance(result, tuple) and result and isinstance(result[0], ReadoutResult):
                marks["attacks.trials"] += 1          # one cheater trial
                marks["attacks.cheater_trials"] += 1

        def observe_readout(args, result):
            marks["anticheat.error_outcomes"] += int(result.error_outcome)

        def observe_emit(args, result):
            marks["runner.emit_bytes"] += len(result)

        special = {
            "anticheat.authority_readout": observe_readout,
            "runner.emit_report": observe_emit,
        }
        by_layer = {"states": observe_states, "branches": observe_states_of_result,
                    "backends": observe_states_of_result, "attacks": observe_attacks}

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qvote.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self._wrap(obj, name, layer,
                                               special.get(name, by_layer.get(layer)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qvote" or mod_name.startswith("qvote."):
                for attr, obj in list(vars(mod).items()):
                    wrapper = replaced.get(id(obj))
                    if wrapper is not None:
                        self._bindings.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

        from qvote.backends import BranchBackend, DenseBackend

        for cls in (DenseBackend, BranchBackend):
            for op in BACKEND_OPS:
                orig = cls.__dict__[op]
                self._bindings.append((cls, op, orig))
                setattr(cls, op, self._wrap(orig, f"backends.{op}", "backends",
                                            observe_states_of_result))
        orig = PhasePOVM.__dict__["__init__"]
        self._bindings.append((PhasePOVM, "__init__", orig))
        PhasePOVM.__init__ = self._wrap(orig, "attacks.PhasePOVM", "attacks", None)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
            out[f"{layer}.errors"] = sum(self.errors[n] for n in names)
        for op in BACKEND_OPS:
            out[f"backends.op.{op}"] = self.calls[f"backends.{op}"]
        for name in ("backends.measure_targets", "backends.measure_diag",
                     "backends.target_probability", "branches.branch_measure",
                     "branches.to_dense", "states.measure_projective", "states.apply_local",
                     "states.partial_trace"):
            out[f"{name}.self_s"] = self.self_s[name]
        for name in ("branches.branch_measure", "branches.branch_inner", "branches.to_dense",
                     "states.sample_index"):
            out[f"{name}.calls"] = self.calls[name]
        measures = self.calls["branches.branch_measure"]
        out["branches.inner_per_measure"] = (
            self.calls["branches.branch_inner"] / measures if measures else 0.0)
        m = self.marks
        for key in ("branches.max_branches", "states.max_amps", "states.bytes_computed",
                    "attacks.trials", "anticheat.error_outcomes", "runner.emit_bytes"):
            out[key] = m[key]
        out["anticheat.rounds"] = self.calls["anticheat.setup"]
        builds = self.calls["attacks.PhasePOVM"]
        out["attacks.povm.builds"] = builds
        out["attacks.povm.build_s"] = self.total_s["attacks.PhasePOVM"]
        cheats = m["attacks.cheater_trials"]
        out["attacks.povm.builds_per_trial"] = builds / cheats if cheats else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write all spans once, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tlayer\tstart\tend\tparent\top\traised\n")
            for sid, (name, layer, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}"
                         f"\t{int(raised)}\n")

