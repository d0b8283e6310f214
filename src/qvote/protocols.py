"""Honest-but-curious voting protocols on shared entangled ballots.

Traveling ballot (one register passed voter to voter, yes = cyclic shift),
distributed ballot (one register per voter, yes = diagonal phase), the
mod-D variant with public announcements, one-to-many anonymous broadcast,
an anonymous survey, and a purely classical baseline for comparison.

Every quantum scheme here, and the group products of :mod:`qvote.groups`,
is one :class:`Ballot` run by :func:`_run_ballot`: parties apply local
unitaries to their registers of a shared GHZ state, then a collector
measures one family, or every register is measured in the Fourier-conjugate
basis and the announced values are summed mod D. Party inputs must be
integers; a fractional one raises rather than being truncated. Each
``run_*`` is one run; :meth:`Ballot.tallies` plays many trials of one
input vector from one preparation, drawing each from its own stream.

The announcement-based schemes are simulated in the frame where the ballot
is the plain correlated state; their literal ballot is the registerwise
Fourier transform of it, so the shift vote conjugates to the inverse
diagonal phase and the announcement measurement to the Fourier-conjugate
basis. Outcome statistics are identical and the frame is shared by both
backends.

An unrecorded branch ballot of monomial operations (every honest ballot here)
stays sum_j c_j |s_0(j) ... s_n-1(j)>, one label permutation s_r per register, and
is played in the label frame: one FFT (phase votes) or one lookup per label row
(shifts, group elements) per readout, each outcome drawn as the step-by-step play
draws it. The dense backend and every recorded run play each step, the oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .backends import get_backend
from .branches import MeasurementFamily, fourier_family, ghz_branches, phase_family, shift_family
from .matrices import phase_vote_matrix, shift_matrix
from .states import (LocalOp, _draw_outcome, _draw_rows, _integers, cached_op, identity_perm,
                     maximally_mixed, trace_distance)

SCHEMES = (
    "traveling",
    "distributed",
    "dolev",
    "broadcast",
    "survey",
    "classical-baseline",
)


def _require_room(D: int, N: int, who: str) -> None:
    """N inputs of weight at least 1 need D > N, or their sum aliases mod D."""
    if D <= N:
        raise ValueError(f"{who} requires D > N (got D={D}, N={N})")


@dataclass(frozen=True)
class ProtocolConfig:
    D: int
    N: int
    scheme: str = "distributed"
    seed: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        _integers((self.D, self.N), "D and N")
        if self.D < 2:
            raise ValueError("requires D >= 2")
        if self.N < 1:
            raise ValueError("requires N >= 1")

    def require_tally_room(self, scheme: str | None = None) -> None:
        """Voting needs D > N so tallies cannot alias mod D; errors name ``scheme`` or the config's."""
        _require_room(self.D, self.N, f"scheme {scheme or self.scheme!r}")

    def require_announcement_dim(self) -> None:
        """The announcement variant sums its announcements mod D = N+1."""
        if self.D != self.N + 1:
            raise ValueError(
                f"the announcement variant requires D = N+1 (got D={self.D}, N={self.N})"
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
    votes = _integers(votes, "votes")
    if len(votes) != N:
        raise ValueError(f"expected {N} entries in votes, got {len(votes)}")
    if any(v not in (0, 1) for v in votes):
        raise ValueError("votes must be 0 (no) or 1 (yes)")
    return votes


def _weighted(builder, D: int, sign: int = 1):
    """A party's operation for input w: ``builder(D, sign * w)``, checked once per
    value; None (nothing applied) for w = 0."""
    return lambda w: cached_op(builder, D, sign * w) if w else None


class Ballot(NamedTuple):
    """The GHZ ballot every scheme shares, for fixed inputs. On the
    ``registers``-register GHZ state of dimension ``D``, party k applies
    ``op(weights[k])`` (None: nothing) to register ``register(k)``. Then the
    collector measures the family ``readout``; or, when it is None, every
    register is measured in the Fourier-conjugate basis and announced, and the
    tally is the sum mod D. Only the readout draws randomness, so the state
    before it is a function of the inputs."""

    D: int
    registers: int
    weights: list[int]
    register: Callable[[int], int]
    op: Callable[[int], LocalOp | None]
    readout: MeasurementFamily | None

    def prepare(self, bk, record=None):
        """The state before the readout; ``record(state, label, step)`` sees the
        ballot (step 0) and the state after each party (step k+1)."""
        state = bk.ghz(self.D, self.registers)
        if record is not None:
            record(state, "ballot", 0)
        for k, w in enumerate(self.weights):
            U = self.op(w)
            if U is not None:
                state = bk.apply_local(state, self.register(k), U)
            if record is not None:
                record(state, f"after-voter-{k}", k + 1)
        return state

    def announce(self, state, bk, rng, public: list) -> tuple[int, object]:
        """Every register measured in the Fourier-conjugate basis, in order, each
        value appended to ``public``: the tally (their sum mod D) and the post-state."""
        kets, m = fourier_family(self.D), 0
        for r in range(self.registers):
            x, state, _ = bk.measure_local_kets(state, r, kets, rng)
            public.append({"event": "announce", "voter": r, "value": int(x)})
            m = (m + int(x)) % self.D
        return m, state

    def labels(self, bk) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """The state before the readout as coefficients c and label rows, sum_j c_j
        |rows[0][j] ... rows[n-1][j]>: ``bk.ghz`` on rows ``identity_perm(D)``; a party's
        monomial U[perm[j], j] = phases[j] on register r takes c to c * phases[rows[r]] and
        rows[r] to perm[rows[r]]. None (the step-by-step play) off the branch backend, for an
        operation that is not a monomial :class:`LocalOp` of dimension D, for a readout on other
        registers or unmarked (``step``, ``monomial``), or a phase or announcement readout once
        labels moved."""
        D, n, family = self.D, self.registers, self.readout
        if bk.name != "branch" or family is not None and (
                family.step is None and family.monomial is None or family.dims != (D,) * n):
            return None
        c, rows, moved = np.full(D, ghz_branches(D, n).branches[0][0]), [ghz := identity_perm(D)] * n, False
        for k, w in enumerate(self.weights):
            if (U := self.op(w)) is not None:
                if not (isinstance(U, LocalOp) and U.dim == D and U.monomial is not None):
                    return None
                (perm, phases), r = U.monomial, self.register(k)
                row, moved = rows[r], moved or perm is not ghz  # the identity gathers nothing
                c, rows[r] = (c * phases, perm) if row is ghz else (c * phases[row], perm[row])
        return None if moved and (family is None or family.monomial is None) else (c, rows)

    def label_reads(self, frame: tuple, rngs) -> list[tuple[int, list[int] | None, float | None]]:
        """Each stream's tally, announced values and the collector's outcome probability
        (None where absent) on the label state ``frame`` = (c, rows), scored once for every
        stream; a collector's draw takes the rank and measured dimension ``score_targets`` gives."""
        (c, rows), family = frame, self.readout
        if family is None:
            return [(sum(x) % self.D, x, None) for x in map(_announcer(c, self.registers), rngs)]
        probs = _phase_weights(c, family.step).tolist() if family.step else _member_weights(c, rows, family)
        ks = [_draw_outcome(probs, family.rank, self.D ** self.registers, rng) for rng in rngs]
        return [(k, None, probs[k] if k < len(probs) else 1.0 - float(sum(probs))) for k in ks]

    def tallies(self, bk, rngs) -> list[tuple[int, list[int] | None]]:
        """The tally :func:`_run_ballot` reads on each stream of ``rngs``, with the
        announced values (None under a collector's readout), from one preparation
        or label state. A collector's family is scored once and each stream draws an
        outcome from those weights, as ``measure_targets`` draws, building no
        post-state; announcements are played per stream."""
        if (frame := self.labels(bk)) is not None:
            return [(m, x) for m, x, _ in self.label_reads(frame, rngs)]
        state = self.prepare(bk)
        if self.readout is not None:
            scores = bk.score_targets(state, self.readout)
            return [(int(_draw_outcome(*scores, rng)), None) for rng in rngs]
        out = []
        for rng in rngs:
            public: list = []
            m, _ = self.announce(state, bk, rng, public)
            out.append((m, [e["value"] for e in public]))
        return out


def _phase_weights(c: np.ndarray, step: int) -> np.ndarray:
    """The Born weights of ``phase_family(D, n, step)`` on the label states
    sum_j c_j |j...j> along the last axis of ``c``: |FFT(c)[q]|^2 / D for q = 0,
    step, 2 step, ..., since member q is (1/sqrt(D)) sum_j e^{2 pi i j q / D} |j...j>."""
    return abs(np.fft.fft(c, axis=-1)[..., ::step]) ** 2 / c.shape[-1]


def _member_weights(c: np.ndarray, rows: list[np.ndarray], family: MeasurementFamily) -> list[float]:
    """The Born weights |sum_j conj(t_j) c_j|^2 of the members t of a family marked with
    its ``monomial`` table on a label state, over the rows t holds: one lookup per row."""
    amps, table = [0j] * len(family), family.monomial
    for cj, row in zip(c.tolist(), zip(*[row.tolist() for row in rows])):
        for t, ct in table.get(row, ()):
            amps[t] += ct * cj
    return [abs(a) ** 2 for a in amps]


def _announcer(c: np.ndarray, registers: int) -> Callable[[np.random.Generator], list[int]]:
    """``draw(rng)``: the values :meth:`Ballot.announce` draws from ``rng`` on the label
    state c, one uniform per register in order. Announcing x multiplies c_j by
    e^{2 pi i j x / D}, so each register but the last draws from the uniform weights
    sum_j |c_j|^2 / D, and the last, after the others' sum S, from
    D |ifft(c e^{2 pi i j S / D})|^2: D |ifft(c)|^2 rolled by S, computed once."""
    D = len(c)
    uniform = np.full((1, D), np.sum(c.real**2 + c.imag**2) / D)
    last = D * abs(np.fft.ifft(c)) ** 2

    def draw(rng: np.random.Generator) -> list[int]:
        x = _draw_rows(uniform, rng.random(registers - 1), complete=True).tolist()
        return x + [_draw_outcome(np.roll(last, -sum(x)).tolist(), D, D, rng)]

    return draw


def _recorder(t: Transcript, bk, ballot: Ballot, record_privacy: bool, record_states: bool):
    """``record(state, label, step)`` for :meth:`Ballot.prepare`: a state snapshot
    when ``record_states``, and with ``record_privacy`` every register's trace
    distance from the maximally mixed state at each step, computed once per
    distinct state object (a party that applied nothing repeats the entries).
    None when nothing is recorded."""
    if not (record_privacy or record_states):
        return None
    mixed = maximally_mixed(ballot.D).matrix if record_privacy else None
    last: list = [None, []]  # the state last checked, and its distances

    def record(state, label, step=None):
        if record_states:
            t.states.append({"label": label, "state": state, "backend": bk.name})
        if record_privacy and step is not None:
            if state is not last[0]:
                last[:] = state, [trace_distance(bk.reduced(state, [r]), mixed)
                                  for r in range(ballot.registers)]
            t.privacy.extend({"step": step, "register": r, "trace_distance": d}
                             for r, d in enumerate(last[1]))

    return record


def _run_ballot(ballot: Ballot, bk, rng, record_privacy=False, record_states=False) -> TallyResult:
    """One run of ``ballot`` on backend ``bk``, its readout through
    ``bk.measure_targets`` or the announcements (in the label frame when
    :meth:`Ballot.labels` allows it and nothing is recorded), with its transcript.
    ``record_privacy`` checks every register's reduced state after each step."""
    t = Transcript()
    record = _recorder(t, bk, ballot, record_privacy, record_states)
    frame = ballot.labels(bk) if record is None else None
    state = ballot.prepare(bk, record) if frame is None else None
    t.hidden.extend([{"voter": k, "vote": w} for k, w in enumerate(ballot.weights)])
    if frame is not None:  # no post-state: nothing reads it
        ((m, announced, p),) = ballot.label_reads(frame, [rng])
        t.public.extend({"event": "announce", "voter": r, "value": x}
                        for r, x in enumerate(announced or ()))
    elif ballot.readout is not None:
        m, state, p = bk.measure_targets(state, ballot.readout, rng)
        m = int(m)
    else:
        m, state = ballot.announce(state, bk, rng, t.public)
    t.public.append({"event": "tally", "m": m} | ({} if ballot.readout is None else {"probability": p}))
    if record is not None:
        record(state, "post-measurement")
    return TallyResult(m=m, transcript=t)


def _traveling_ballot(config: ProtocolConfig, votes) -> Ballot:
    config.require_tally_room("traveling")
    votes, D = _check_votes(votes, config.N), config.D
    return Ballot(D, 2, votes, lambda k: 1, _weighted(shift_matrix, D), shift_family(D))


def run_traveling(
    config: ProtocolConfig,
    votes,
    backend="dense",
    rng=None,
    record_privacy: bool = False,
    record_states: bool = False,
) -> TallyResult:
    """Traveling two-register ballot; each yes vote shifts the moving register."""
    return _run_ballot(_traveling_ballot(config, votes), get_backend(backend),
                       config.rng() if rng is None else rng, record_privacy, record_states)


def _distributed_ballot(config: ProtocolConfig, votes) -> Ballot:
    config.require_tally_room("distributed")
    votes, D, N = _check_votes(votes, config.N), config.D, config.N
    return Ballot(D, N, votes, lambda k: k, _weighted(phase_vote_matrix, D), phase_family(D, N))


def run_distributed(
    config: ProtocolConfig,
    votes,
    backend="dense",
    rng=None,
    record_privacy: bool = False,
    record_states: bool = False,
) -> TallyResult:
    """Distributed N-register ballot; each yes vote applies the diagonal phase."""
    return _run_ballot(_distributed_ballot(config, votes), get_backend(backend),
                       config.rng() if rng is None else rng, record_privacy, record_states)


def _dolev_ballot(config: ProtocolConfig, votes) -> Ballot:
    config.require_announcement_dim()
    votes, D = _check_votes(votes, config.N), config.D
    return Ballot(D, config.N, votes, lambda k: k, _weighted(phase_vote_matrix, D, -1), None)


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
    ballot = _dolev_ballot(config, votes)
    res = _run_ballot(ballot, get_backend(backend), config.rng() if rng is None else rng,
                      record_privacy, record_states)
    announced = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
    labels = [(x - v) % ballot.D for x, v in zip(announced, ballot.weights)]
    res.transcript.hidden.append({"labels": labels, "label_sum_mod_D": sum(labels) % ballot.D})
    return res


def _check_broadcast(config: ProtocolConfig, sender, message) -> list[int]:
    """The broadcast's inputs: a sender in [0, N) and a message in [0, D)."""
    sender, message = _integers((sender, message), "sender and message")
    if not 0 <= message < config.D:
        raise ValueError(f"message {message} out of range [0, {config.D})")
    if not 0 <= sender < config.N:
        raise ValueError(f"sender {sender} out of range [0, {config.N})")
    return [sender, message]


def _broadcast_ballot(config: ProtocolConfig, sender, message) -> Ballot:
    """The sender's register carries the message as a phase, the others' carry nothing."""
    sender, message = _check_broadcast(config, sender, message)
    D, N = config.D, config.N
    weights = [message if k == sender else 0 for k in range(N)]
    return Ballot(D, N, weights, lambda k: k, _weighted(phase_vote_matrix, D, -1), None)


def run_broadcast(
    config: ProtocolConfig,
    sender: int,
    message: int,
    backend="dense",
    rng=None,
    record_states: bool = False,
) -> TallyResult:
    """One-to-many anonymous broadcast of an integer in [0, D): the sender's
    register carries the message as a phase, the others' carry nothing."""
    return _run_ballot(_broadcast_ballot(config, sender, message), get_backend(backend),
                       config.rng() if rng is None else rng, record_states=record_states)


def _check_salaries(config: ProtocolConfig, salaries) -> list[int]:
    """The survey's inputs: N non-negative multiplicities whose sum cannot alias mod D."""
    salaries = _integers(salaries, "salary multiplicities")
    if len(salaries) != config.N:
        raise ValueError(f"expected {config.N} salary entries, got {len(salaries)}")
    if any(s < 0 for s in salaries):
        raise ValueError("salary multiplicities must be non-negative")
    if sum(salaries) >= config.D:
        raise ValueError(f"requires sum of votes < D (got {sum(salaries)} >= {config.D})")
    return salaries


def _survey_ballot(config: ProtocolConfig, salaries) -> Ballot:
    salaries, D = _check_salaries(config, salaries), config.D
    return Ballot(D, 2, salaries, lambda k: 1, _weighted(shift_matrix, D), shift_family(D))


def run_survey(
    config: ProtocolConfig,
    salaries,
    backend="dense",
    rng=None,
    record_states: bool = False,
) -> TallyResult:
    """Anonymous survey: each participant votes a multiplicity; report the mean."""
    res = _run_ballot(_survey_ballot(config, salaries), get_backend(backend),
                      config.rng() if rng is None else rng, record_states=record_states)
    res.average = Fraction(res.m, config.N)
    res.transcript.public.append({"event": "average", "value": str(res.average)})
    return res


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
