"""Deterministic work counts as a complexity gate.

Wall time on a shared host swings by 2x, but the number of Python and C
calls one op makes does not. Each branch op below is run once warm at N=16
and N=32 with D = N+1, counted under ``sys.setprofile``, and each count is
held under a ceiling of its own: the count measured when the ceiling was set
times 2**0.1, the margin the growth exponent was once given. A ceiling only
ever tightens. Counts can depend on drawn outcomes, so two seeds are checked.
The growth exponent log2(calls at 32 / calls at 16) is printed beside the
counts and ceilings but not asserted: it reads a cheaper small size as
steeper growth, where a ceiling per size fails on any rise, at either size
or both, and never on a fall.

Counts when the ceilings were set, under pytest and the same for both seeds
(N=16, N=32): distributed 226, 378 and dolev 296, 464, both played in the
label frame (D coefficients, one FFT per readout). Traveling read 1,259,
2,585 step by step, then 963, 2,595 with its readout scored by the pair
loop alone. Its ceilings were set again at 267, 459 once it was played in
the label frame too (one label row per register, one lookup per state row
in the readout), and the anti-cheat ceilings at 782, 1,422 for either
variant (852, 1,572 before) once a round built its voting qudit and their
weights once per distinct angle. The label frame's register lookup per
vote raised distributed to 234, 394 and dolev to 304, 480, within their
ceilings.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from qvote import anticheat, protocols
from qvote.anticheat import AuthoritySecrets

COUNTS = {  # calls at N=16 and N=32 when the ceilings were set
    "distributed": (226, 378),
    "traveling": (267, 459),
    "dolev": (296, 464),
    "anticheat-distributed": (782, 1422),
    "anticheat-traveling": (782, 1422),
}
MARGIN = 2 ** 0.1


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


@pytest.mark.parametrize("name", list(COUNTS))
def test_call_count_growth_exponent(name):
    """Each size's count under its ceiling; the growth exponent is reported."""
    ceilings = [math.floor(count * MARGIN) for count in COUNTS[name]]
    for seed in (0, 1):
        counts = []
        for N in (16, 32):
            op = _op(name, N, seed)
            op()  # warm: cached families and operators are built here
            counts.append(_calls(op))
        exponent = math.log2(counts[1] / counts[0])
        print(f"{name} seed {seed}: calls {counts[0]} at N=16 (ceiling {ceilings[0]}), "
              f"{counts[1]} at N=32 (ceiling {ceilings[1]}), exponent {exponent:.3f}")
        assert counts[0] <= ceilings[0] and counts[1] <= ceilings[1], (name, seed, counts, ceilings)
