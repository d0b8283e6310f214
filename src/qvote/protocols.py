"""Honest-but-curious voting protocols on shared entangled ballots.

Traveling ballot (one register passed voter to voter, yes = cyclic shift),
distributed ballot (one register per voter, yes = diagonal phase), the
mod-D variant with public announcements, one-to-many anonymous broadcast,
an anonymous survey, and a purely classical baseline for comparison.

The announcement-based schemes are simulated in the frame where the ballot
is the plain correlated state; their literal ballot is the registerwise
Fourier transform of it, so the shift vote conjugates to the inverse
diagonal phase and the announcement measurement to the Fourier-conjugate
basis. Outcome statistics are identical and the frame is shared by both
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .backends import get_backend
from .branches import phase_family, shift_family
from .matrices import fourier_basis_kets, phase_vote_matrix, shift_matrix
from .states import cached_op, maximally_mixed, trace_distance

SCHEMES = (
    "traveling",
    "distributed",
    "dolev",
    "broadcast",
    "survey",
    "classical-baseline",
)


@dataclass(frozen=True)
class ProtocolConfig:
    D: int
    N: int
    scheme: str = "distributed"
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.D < 2:
            raise ValueError("requires D >= 2")
        if self.N < 1:
            raise ValueError("requires N >= 1")

    def require_tally_room(self) -> None:
        """Shift/phase voting needs D > N so tallies cannot alias mod D."""
        if self.D <= self.N:
            raise ValueError(
                f"scheme {self.scheme!r} requires D > N (got D={self.D}, N={self.N})"
            )

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class Transcript:
    """Ordered protocol record, split by who can see it."""

    public: list = field(default_factory=list)   # announcements, authority outcomes
    hidden: list = field(default_factory=list)   # per-voter operations (ground truth)
    privacy: list = field(default_factory=list)  # reduced-density checkpoints
    states: list = field(default_factory=list)   # optional state snapshots


@dataclass
class TallyResult:
    m: int
    transcript: Transcript
    average: Fraction | None = None


def _check_votes(votes, N) -> list[int]:
    votes = [int(v) for v in votes]
    if len(votes) != N:
        raise ValueError(f"expected {N} votes, got {len(votes)}")
    if any(v not in (0, 1) for v in votes):
        raise ValueError("votes must be 0 (no) or 1 (yes)")
    return votes


def _privacy_checkpoint(backend, state, registers, D, transcript, step):
    mixed = maximally_mixed(D).matrix
    for r in registers:
        d = trace_distance(backend.reduced(state, [r]), mixed)
        transcript.privacy.append({"step": step, "register": r, "trace_distance": d})


def _snapshot(backend, state, transcript, record_states, label):
    if record_states:
        transcript.states.append({"label": label, "state": state, "backend": backend.name})


def _run_tally(config, votes, backend, rng, record_privacy, record_states,
               registers, vote_register, vote_op, targets) -> TallyResult:
    """A ``registers``-register correlated ballot: each yes vote of voter k
    applies ``vote_op`` to ``vote_register(k)``; the tally is one measurement
    of the family ``targets``."""
    config.require_tally_room()
    votes = _check_votes(votes, config.N)
    bk = get_backend(backend)
    rng = rng if rng is not None else config.rng()
    t = Transcript()
    D = config.D

    state = bk.ghz(D, registers)
    _snapshot(bk, state, t, record_states, "ballot")
    if record_privacy:
        _privacy_checkpoint(bk, state, range(registers), D, t, step=0)
    for k, v in enumerate(votes):
        if v:
            state = bk.apply_local(state, vote_register(k), vote_op)
        t.hidden.append({"voter": k, "vote": v})
        _snapshot(bk, state, t, record_states, f"after-voter-{k}")
        if record_privacy:
            _privacy_checkpoint(bk, state, range(registers), D, t, step=k + 1)
    outcome, state, p = bk.measure_targets(state, targets, rng)
    t.public.append({"event": "tally", "m": int(outcome), "probability": p})
    _snapshot(bk, state, t, record_states, "post-measurement")
    return TallyResult(m=int(outcome), transcript=t)


def run_traveling(
    config: ProtocolConfig,
    votes,
    backend="dense",
    rng=None,
    record_privacy: bool = False,
    record_states: bool = False,
) -> TallyResult:
    """Traveling two-register ballot; each yes vote shifts the moving register."""
    D = config.D
    return _run_tally(config, votes, backend, rng, record_privacy, record_states,
                      2, lambda k: 1, cached_op(shift_matrix, D, 1), shift_family(D))


def run_distributed(
    config: ProtocolConfig,
    votes,
    backend="dense",
    rng=None,
    record_privacy: bool = False,
    record_states: bool = False,
) -> TallyResult:
    """Distributed N-register ballot; each yes vote applies the diagonal phase."""
    D, N = config.D, config.N
    return _run_tally(config, votes, backend, rng, record_privacy, record_states,
                      N, lambda k: k, cached_op(phase_vote_matrix, D, 1), phase_family(D, N))


def _announce(bk, state, rng, t, D, N):
    """Every register is measured in the Fourier-conjugate basis and its
    outcome announced; returns the announced values and the post-state."""
    announced = []
    kets = fourier_basis_kets(D)
    for k in range(N):
        x, state, _ = bk.measure_local_kets(state, k, kets, rng)
        announced.append(int(x))
        t.public.append({"event": "announce", "voter": k, "value": int(x)})
    return announced, state


def run_dolev(
    config: ProtocolConfig,
    votes,
    backend="dense",
    rng=None,
    record_privacy: bool = False,
    record_states: bool = False,
) -> TallyResult:
    """Announcement variant: D = N+1, every voter measures and announces.

    Simulated in the correlated-ballot frame (see module docstring): the
    shift vote becomes the inverse diagonal phase and each announcement is a
    Fourier-conjugate basis measurement of the voter's own register.
    """
    if config.D != config.N + 1:
        raise ValueError("requires D = N+1")
    votes = _check_votes(votes, config.N)
    bk = get_backend(backend)
    rng = rng if rng is not None else config.rng()
    t = Transcript()
    D, N = config.D, config.N

    state = bk.ghz(D, N)
    if record_privacy:
        _privacy_checkpoint(bk, state, range(N), D, t, step=0)
    for k, v in enumerate(votes):
        if v:
            state = bk.apply_local(state, k, cached_op(phase_vote_matrix, D, -1))
        t.hidden.append({"voter": k, "vote": v})
        if record_privacy:
            _privacy_checkpoint(bk, state, range(N), D, t, step=k + 1)
    _snapshot(bk, state, t, record_states, "pre-announcement")
    announced, state = _announce(bk, state, rng, t, D, N)
    _snapshot(bk, state, t, record_states, "post-announcement")
    tally = sum(announced) % D
    hidden_labels = [(x - v) % D for x, v in zip(announced, votes)]
    t.hidden.append({"labels": hidden_labels, "label_sum_mod_D": sum(hidden_labels) % D})
    t.public.append({"event": "tally", "m": tally})
    return TallyResult(m=tally, transcript=t)


def run_broadcast(
    config: ProtocolConfig,
    sender: int,
    message: int,
    backend="dense",
    rng=None,
    record_states: bool = False,
) -> TallyResult:
    """One-to-many anonymous broadcast of an integer in [0, D)."""
    if not 0 <= message < config.D:
        raise ValueError(f"message {message} out of range [0, {config.D})")
    if not 0 <= sender < config.N:
        raise ValueError(f"sender {sender} out of range")
    bk = get_backend(backend)
    rng = rng if rng is not None else config.rng()
    t = Transcript()
    D, N = config.D, config.N

    state = bk.ghz(D, N)
    if message:
        state = bk.apply_local(state, sender, cached_op(phase_vote_matrix, D, -message))
    t.hidden.append({"sender": sender, "message": message})
    _snapshot(bk, state, t, record_states, "pre-announcement")
    announced, state = _announce(bk, state, rng, t, D, N)
    reconstructed = sum(announced) % D
    t.public.append({"event": "reconstructed", "m": reconstructed})
    return TallyResult(m=reconstructed, transcript=t)


def run_survey(
    config: ProtocolConfig,
    salaries,
    backend="dense",
    rng=None,
    record_states: bool = False,
) -> TallyResult:
    """Anonymous survey: each participant votes a multiplicity; report the mean."""
    salaries = [int(s) for s in salaries]
    if len(salaries) != config.N:
        raise ValueError(f"expected {config.N} salary entries, got {len(salaries)}")
    if any(s < 0 for s in salaries):
        raise ValueError("salary multiplicities must be non-negative")
    total = sum(salaries)
    if total >= config.D:
        raise ValueError(f"requires sum of votes < D (got {total} >= {config.D})")
    bk = get_backend(backend)
    rng = rng if rng is not None else config.rng()
    t = Transcript()
    D = config.D

    state = bk.ghz(D, 2)
    for k, s in enumerate(salaries):
        if s:
            state = bk.apply_local(state, 1, cached_op(shift_matrix, D, s))
        t.hidden.append({"voter": k, "multiplicity": s})
    _snapshot(bk, state, t, record_states, "returned-ballot")
    outcome, state, p = bk.measure_targets(state, shift_family(D), rng)
    t.public.append({"event": "total", "m": int(outcome), "probability": p})
    avg = Fraction(int(outcome), config.N)
    t.public.append({"event": "average", "value": str(avg)})
    return TallyResult(m=int(outcome), transcript=t, average=avg)


# ---------------------------------------------------------------------------
# classical baseline


def sample_zero_sum_ballots(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the N-tuples over [0, N] summing to 0 mod N+1.

    The first N-1 entries are drawn uniformly and the last one fixes the sum;
    the result is uniform over the zero-sum set.
    """
    D = N + 1
    out = np.empty((count, N), dtype=np.int64)
    if N > 1:
        out[:, : N - 1] = rng.integers(0, D, size=(count, N - 1))
    out[:, N - 1] = (-out[:, : N - 1].sum(axis=1)) % D
    return out


def run_classical_baseline(
    N: int,
    votes,
    rng: np.random.Generator,
    variant: str = "zero-sum",
) -> TallyResult:
    """Classical comparison schemes.

    ``zero-sum`` (default): one authority writes integers summing to 0 mod
    N+1 on the ballots, a yes adds 1, a second authority sums mod N+1.
    ``padded-traveling``: the naive circulating ballot where each voter adds
    vote + random pad and reveals the pad afterwards; private only while
    the pads stay secret, which is the point of the comparison.
    """
    votes = _check_votes(votes, N)
    t = Transcript()
    if variant == "zero-sum":
        D = N + 1
        labels = sample_zero_sum_ballots(N, 1, rng)[0]
        marked = [(int(l) + v) % D for l, v in zip(labels, votes)]
        tally = sum(marked) % D
        t.hidden.append({"ballot_labels": [int(l) for l in labels]})
        t.public.append({"event": "collected", "values": marked})
        t.public.append({"event": "tally", "m": tally})
        return TallyResult(m=tally, transcript=t)
    if variant == "padded-traveling":
        pads = [int(p) for p in rng.integers(0, N + 1, size=N)]
        running = 0
        for k, (v, p) in enumerate(zip(votes, pads)):
            running += v + p
            t.hidden.append({"voter": k, "pad": p})
            t.public.append({"event": "ballot-total", "after_voter": k, "value": running})
        tally = running - sum(pads)
        t.public.append({"event": "pads-revealed", "values": pads})
        t.public.append({"event": "tally", "m": tally})
        return TallyResult(m=tally, transcript=t)
    raise ValueError(f"unknown classical variant {variant!r}")
