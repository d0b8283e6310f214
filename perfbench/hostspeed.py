"""Host-speed probe: a fixed kernel, independent of qvote, timed around ops.

The sandbox shares its CPUs with other tenants, and the speed they leave us
swings by up to 2x within seconds; wall and CPU time move together. The
probe does the same interpreter-bound and dense-contraction work every time,
so its duration tracks that speed. It runs after every op and, through
:class:`Sampler`, every ``INTERVAL_S`` inside long ops. Each op's wall time
(minus the probes inside it) is scaled by ``REF_S / probe time``, which
turns it into seconds on a host where the probe takes ``REF_S``. Changes to
qvote cannot move the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 1e-3          # nominal probe time; only fixes the unit of normalized time
INTERVAL_S = 0.1      # in-op probe period
_WINDOW = 3           # probes taken on each side of an op
_VEC = np.exp(1j * np.arange(16.0))
_GATE = np.exp(1j * np.arange(49.0)).reshape(7, 7)
_TENSOR = np.exp(1j * np.arange(7.0**5)).reshape((7,) * 5)


def probe() -> float:
    """About half interpreter-bound work, half a dense-state-sized contraction."""
    start = time.perf_counter()
    acc = 0j
    for k in range(150):
        v = _VEC * (k + 1)
        acc += complex(np.vdot(v, _VEC))
        d = {"k": k, "t": (k, acc)}
        acc += d["t"][0] * 1e-3
    for axis in range(3):
        acc += np.tensordot(_GATE, _TENSOR, axes=([1], [axis])).flat[axis]
    return time.perf_counter() - start


class Sampler:
    """Runs the probe from a SIGALRM handler every INTERVAL_S of wall time.

    Python runs the handler in the main thread between bytecodes, so it
    interleaves with the op without touching its state. ``paused`` keeps it
    out of the boundary probes.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, probe duration)
        self.paused = False
        self._previous = None

    def _tick(self, signum, frame):
        if not self.paused:
            duration = probe()
            self.samples.append((time.perf_counter(), duration))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def factor(samples: list[float]) -> float:
    return REF_S / statistics.median(samples)


def scale(probes: list[float], before: int, inside: list[float]) -> float:
    """Factor for an op run between probes[before] and probes[before + 1]
    with the ``inside`` probes taken during it."""
    return factor(probes[max(0, before + 1 - _WINDOW): before + 1 + _WINDOW] + inside)
