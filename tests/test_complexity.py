"""Deterministic work counts as a complexity gate.

Wall time on a shared host swings by 2x, but the number of Python and C
calls one op makes does not. Each branch op below is run once warm at N=16
and N=32 with D = N+1, counted under ``sys.setprofile``, and its growth
exponent log2(calls at 32 / calls at 16) is held under a bound. Each bound is
the exponent measured when it was set plus a margin of 0.1; a bound only
ever tightens. Counts can depend on drawn outcomes, so two seeds are checked.
The counts are printed; only the exponents are asserted.

Measured exponents under pytest, the same for both seeds: distributed 0.742
and dolev 0.649, now that both are played in the label frame (D coefficients,
one FFT per readout); traveling 1.038; the anti-cheat rounds, also in the
label frame, 0.884 for either variant. The distributed and dolev bounds are
their values plus the margin. The traveling readout at N=16 (D=17) is below
the gather gate and at N=32 above it, so its exponent also counts the switch
to the array form; gathering at N=16 too would lower that count, 1259 to 969
calls, and lift the exponent to 1.416. The traveling and anti-cheat bounds
were set at 1.046 and 0.896, when the announcements
(dolev) and the readouts came to be scored as arrays above the pair-loop size
gate; before, dolev's exponent was 2.750 (N·D² Python-level collapses),
distributed's 1.644 and traveling's 1.557. Earlier bounds: distributed 1.567
and dolev 1.734 (step by step, scored as arrays); 1.575, 1.485, 2.744 and
0.911, set when every ballot was built afresh.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from qvote import anticheat, protocols
from qvote.anticheat import AuthoritySecrets

BOUNDS = {
    "distributed": 0.742 + 0.1,
    "traveling": 1.046 + 0.1,
    "dolev": 0.649 + 0.1,
    "anticheat-distributed": 0.896 + 0.1,
    "anticheat-traveling": 0.896 + 0.1,
}


def _op(name: str, N: int, seed: int):
    D, votes = N + 1, [k % 2 for k in range(N)]
    if name.startswith("anticheat-"):
        secrets = AuthoritySecrets(1, 0, 0.1)
        variant = name.removeprefix("anticheat-")
        return lambda: anticheat.run_round(D, N, secrets, votes, np.random.default_rng(seed),
                                           "branch", variant)
    run = getattr(protocols, f"run_{name}")
    cfg = protocols.ProtocolConfig(D=D, N=N, scheme=name)
    return lambda: run(cfg, votes, "branch", rng=np.random.default_rng(seed))


def _calls(op) -> int:
    """Python and C calls made by one run of ``op``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", list(BOUNDS))
def test_call_count_growth_exponent(name):
    for seed in (0, 1):
        counts = []
        for N in (16, 32):
            op = _op(name, N, seed)
            op()  # warm: cached families and operators are built here
            counts.append(_calls(op))
        exponent = math.log2(counts[1] / counts[0])
        print(f"{name} seed {seed}: calls {counts[0]} at N=16, {counts[1]} at N=32, "
              f"exponent {exponent:.3f}")
        assert exponent <= BOUNDS[name], (name, seed, counts)
