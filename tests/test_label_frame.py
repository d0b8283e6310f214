"""The branch backend's label frame against its step-by-step play, the oracle.

An unrecorded branch ballot whose parties only apply diagonal phases, read out
by a phase family or by the announcements, is played as its D coefficients
(``Ballot.labels``). A recorded run (``record_states=True``) plays every step.
On shared seeds the two must give the same tallies and announced values, through
``_run_ballot`` and through ``Ballot.tallies`` at any trial count; a family that
is not a marked phase family (a hand-built partial one) keeps the step-by-step
path, remainder draws included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qvote import groups
from qvote.backends import get_backend
from qvote.branches import MeasurementFamily, phase_family
from qvote.matrices import angle_phase_matrix
from qvote.protocols import (Ballot, ProtocolConfig, _broadcast_ballot, _distributed_ballot,
                             _dolev_ballot, _run_ballot)
from qvote.states import LocalOp

BRANCH = get_backend("branch")
SCHEMES = ["distributed", "dolev", "broadcast", "angles"]


def _angle_ballot(D, N, rng, readout):
    """Party k applies diag(e^{i j theta_k}) for a random angle, or nothing: a random tally."""
    ops = [None] + [LocalOp(angle_phase_matrix(D, t)) for t in rng.uniform(0, 2 * np.pi, N)]
    weights = [int(w) for w in rng.integers(0, N + 1, N)]
    return Ballot(D, N, weights, lambda k: k, ops.__getitem__, readout)


def _ballots(scheme, D, N, rng) -> list[Ballot]:
    votes = [int(v) for v in rng.integers(0, 2, N)]
    if scheme == "distributed":
        return [_distributed_ballot(ProtocolConfig(D=D, N=N), votes)]
    if scheme == "dolev":
        return [_dolev_ballot(ProtocolConfig(D=D, N=N), votes)]
    if scheme == "broadcast":  # the sender on every register
        return [_broadcast_ballot(ProtocolConfig(D=D, N=N), s, int(rng.integers(D))) for s in range(N)]
    readout = None if rng.random() < 0.4 else phase_family(D, N, int(rng.integers(1, 4)))
    return [_angle_ballot(D, N, rng, readout)]


def _played(res, ballot):
    """A run's (tally, announced values or None), as ``Ballot.tallies`` lists it."""
    announced = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
    return res.m, (announced if ballot.readout is None else None)


def _check(ballot, seed, trials):
    """The label frame's tallies, per run and per batch, equal the recorded play's."""
    streams = lambda: np.random.default_rng([seed, 1]).spawn(trials)  # noqa: E731
    oracle = [_run_ballot(ballot, BRANCH, rng, record_states=True) for rng in streams()]
    want = [_played(res, ballot) for res in oracle]
    assert ballot.tallies(BRANCH, streams()) == want
    for rng, oracle_rng, res in zip(streams(), streams(), oracle):
        got = _run_ballot(ballot, BRANCH, rng)
        assert _played(got, ballot) == _played(res, ballot)
        _run_ballot(ballot, BRANCH, oracle_rng, record_states=True)
        assert rng.random() == oracle_rng.random()  # as many uniforms drawn
        assert got.transcript.states == [] and got.transcript.hidden == res.transcript.hidden
        if ballot.readout is not None:
            assert abs(got.transcript.public[-1]["probability"]
                       - res.transcript.public[-1]["probability"]) <= 1e-12
    return want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scheme=hst.sampled_from(SCHEMES), D=hst.integers(2, 33), N=hst.integers(1, 12),
       seed=hst.integers(0, 2**32 - 1), trials=hst.sampled_from([0, 1, 6]))
@example(scheme="distributed", D=2, N=1, seed=1, trials=6)
@example(scheme="dolev", D=2, N=1, seed=2, trials=6)
@example(scheme="broadcast", D=2, N=1, seed=3, trials=6)
@example(scheme="angles", D=2, N=1, seed=4, trials=6)
@example(scheme="dolev", D=33, N=32, seed=5, trials=1)
@example(scheme="distributed", D=33, N=32, seed=6, trials=6)
def test_label_frame_equals_the_step_by_step_play(scheme, D, N, seed, trials):
    if scheme in ("distributed", "dolev"):
        N = min(N, D - 1)  # the tally needs D > N
    if scheme == "dolev":
        D = N + 1
    for ballot in _ballots(scheme, D, N, np.random.default_rng(seed)):
        assert ballot.labels(BRANCH) is not None
        _check(ballot, seed, trials)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(factors=hst.lists(hst.integers(2, 9), min_size=2, max_size=4), parties=hst.integers(1, 5),
       seed=hst.integers(0, 2**32 - 1))
def test_abelian_products_equal_the_step_by_step_play(factors, parties, seed):
    rng = np.random.default_rng(seed)
    choices = [[int(rng.integers(d)) for d in factors] for _ in range(parties)]
    labels, built = Ballot.labels, []
    with mock.patch.object(Ballot, "labels", lambda self, bk: built.append(c := labels(self, bk)) or c):
        got = groups.run_abelian_distributed(factors, choices, "branch", np.random.default_rng(seed))
    recorded = lambda ballot, bk, rng: _run_ballot(ballot, bk, rng, record_states=True)  # noqa: E731
    with mock.patch.object(groups, "_run_ballot", recorded):
        want = groups.run_abelian_distributed(factors, choices, "branch", np.random.default_rng(seed))
    assert got == want == tuple(sum(ch[f] for ch in choices) % d for f, d in enumerate(factors))
    assert len(built) == len(factors) and all(c is not None for c in built)


@pytest.mark.parametrize("readout", ["partial", "step 2"])
def test_remainder_draws_equal_the_step_by_step_play(readout):
    """A random tally read by part of the phase family: the hand-built first two
    members keep the step-by-step path; the marked family of every second member
    runs in the label frame. Either draws its remainder outcome as the oracle does."""
    D, N = 5, 3
    family = phase_family(D, N, 2) if readout == "step 2" \
        else MeasurementFamily((D,) * N, phase_family(D, N).targets[:2])
    ballot = _angle_ballot(D, N, np.random.default_rng(8), family)
    assert (ballot.labels(BRANCH) is None) == (readout == "partial")
    tallies = {m for m, _ in _check(ballot, 9, 60)}
    assert len(family) in tallies and len(tallies) > 2


def test_non_diagonal_parties_play_step_by_step():
    """A shift vote, or a raw matrix, is not a diagonal LocalOp: no label frame."""
    D, N = 4, 3
    shift = LocalOp(np.roll(np.eye(D), 1, axis=0))
    for op in (shift, np.diag(np.exp(1j * np.arange(D)))):
        ballot = Ballot(D, N, [1, 0, 1], lambda k: k, lambda w, op=op: op if w else None, phase_family(D, N))
        assert ballot.labels(BRANCH) is None
    assert _distributed_ballot(ProtocolConfig(D=D, N=N), [1, 0, 1]).labels(get_backend("dense")) is None
