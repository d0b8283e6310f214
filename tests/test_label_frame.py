"""The branch backend's label frame against its step-by-step play, the oracle.

An unrecorded branch ballot whose parties only apply monomial operations (vote
phases, shifts, the permutation matrices of a regular representation, Paulis)
is played as D coefficients and one label row per register (``Ballot.labels``):
read out by a phase family or by the announcements while no party permuted
labels, or by a family marked with its label rows (``shift_family``, the
candidate family of a monomial representation) after any. A recorded run
(``record_states=True``) plays every step. On shared seeds the two must give the
same tallies and announced values, through ``_run_ballot`` and through
``Ballot.tallies`` at any trial count, and probabilities within 1e-12; a family
that is not marked (a hand-built one) or a vote that is not monomial keeps the
step-by-step path, remainder draws included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qvote import groups
from qvote.backends import get_backend
from qvote.branches import MeasurementFamily, phase_family, shift_family
from qvote.matrices import angle_phase_matrix, dft_matrix
from qvote.protocols import (Ballot, ProtocolConfig, _broadcast_ballot, _distributed_ballot,
                             _dolev_ballot, _run_ballot, _survey_ballot, _traveling_ballot)
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
    """Under a phase family, a shift vote permutes labels, and a raw matrix is not a
    LocalOp: no label frame."""
    D, N = 4, 3
    shift = LocalOp(np.roll(np.eye(D), 1, axis=0))
    for op in (shift, np.diag(np.exp(1j * np.arange(D)))):
        ballot = Ballot(D, N, [1, 0, 1], lambda k: k, lambda w, op=op: op if w else None, phase_family(D, N))
        assert ballot.labels(BRANCH) is None
    assert _distributed_ballot(ProtocolConfig(D=D, N=N), [1, 0, 1]).labels(get_backend("dense")) is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scheme=hst.sampled_from(["traveling", "survey"]), D=hst.integers(2, 33), N=hst.integers(1, 12),
       seed=hst.integers(0, 2**32 - 1), trials=hst.sampled_from([0, 1, 6]))
@example(scheme="traveling", D=2, N=1, seed=1, trials=6)
@example(scheme="survey", D=2, N=1, seed=2, trials=6)
@example(scheme="traveling", D=33, N=32, seed=3, trials=6)
@example(scheme="survey", D=33, N=12, seed=4, trials=6)
def test_traveling_and_survey_equal_the_step_by_step_play(scheme, D, N, seed, trials):
    rng = np.random.default_rng(seed)
    if scheme == "traveling":
        N = min(N, D - 1)  # the tally needs D > N
        ballot = _traveling_ballot(ProtocolConfig(D=D, N=N), [int(v) for v in rng.integers(0, 2, N)])
    else:  # multiplicities summing below D
        salaries = np.bincount(rng.integers(0, N, int(rng.integers(D))), minlength=N)
        ballot = _survey_ballot(ProtocolConfig(D=D, N=N, scheme="survey"), [int(s) for s in salaries])
    assert ballot.readout.monomial is not None and ballot.labels(BRANCH) is not None
    want = _check(ballot, seed, trials)
    assert all(m == sum(ballot.weights) for m, _ in want)


REPRESENTATIONS = {
    "s3": lambda: (s3 := groups.symmetric_group_3(), groups.regular_representation(s3)),
    "klein4": groups.klein4,
    **{f"z{n}": lambda n=n: (z := groups.cyclic_group(n), groups.regular_representation(z)) for n in (2, 5, 9)},
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=hst.sampled_from(sorted(REPRESENTATIONS)), parties=hst.integers(1, 7),
       seed=hst.integers(0, 2**32 - 1), trials=hst.sampled_from([0, 1, 6]))
def test_group_traveling_equals_the_step_by_step_play(name, parties, seed, trials):
    """The ballot ``run_group_traveling`` plays, on a marked candidate family."""
    group, rep = REPRESENTATIONS[name]()
    choices = [int(g) for g in np.random.default_rng(seed).integers(0, group.order, parties)]
    ballots = []
    with mock.patch.object(groups, "_run_ballot", lambda ballot, *a: ballots.append(ballot) or _run_ballot(ballot, *a)):
        assert groups.run_group_traveling(group, rep, choices, "branch", np.random.default_rng(seed)) \
            == group.product(choices)
    (ballot,) = ballots
    assert ballot.readout.monomial is not None and ballot.labels(BRANCH) is not None
    _check(ballot, seed, trials)


def _monomial(D, rng, diagonal):
    """A random monomial operator: random phases, on a random permutation unless ``diagonal``."""
    perm = np.arange(D) if diagonal else rng.permutation(D)
    U = np.zeros((D, D), dtype=complex)
    U[perm, np.arange(D)] = np.exp(1j * rng.uniform(0, 2 * np.pi, D))
    return LocalOp(U)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(readout=hst.sampled_from(["shift", "candidates", "phase", "announcements"]), D=hst.integers(2, 12),
       parties=hst.integers(1, 6), diagonal=hst.booleans(), seed=hst.integers(0, 2**32 - 1),
       trials=hst.sampled_from([0, 1, 6]))
@example(readout="shift", D=5, parties=4, diagonal=False, seed=1, trials=6)
@example(readout="candidates", D=6, parties=4, diagonal=False, seed=2, trials=6)
def test_random_monomial_parties_equal_the_step_by_step_play(readout, D, parties, diagonal, seed, trials):
    """Random monomial operations on random registers: a marked label-row family reads
    any of them in the label frame, a phase family or the announcements only diagonal
    ones; the rest play step by step. Either way the draws are the oracle's."""
    rng = np.random.default_rng(seed)
    n = 2 if readout in ("shift", "candidates") else int(rng.integers(2, 5))
    family = {"shift": lambda: shift_family(D), "phase": lambda: phase_family(D, n),
              "announcements": lambda: None,
              "candidates": lambda: groups.regular_representation(groups.cyclic_group(D)).candidate_family}
    ops = [None] + [_monomial(D, rng, diagonal) for _ in range(parties)]
    registers = [int(r) for r in rng.integers(0, n, parties)]
    ballot = Ballot(D, n, [int(w) for w in rng.permutation(parties + 1)[:parties]], registers.__getitem__,
                    ops.__getitem__, family[readout]())
    framed = readout in ("shift", "candidates") or all(
        ops[w] is None or np.array_equal(ops[w].monomial[0], np.arange(D)) for w in ballot.weights)
    assert (ballot.labels(BRANCH) is not None) == framed
    _check(ballot, seed, trials)


def test_unmarked_families_and_other_votes_play_step_by_step():
    """A Fourier vote is not monomial, and neither a hand-built shift family nor the
    candidates of a regular representation in a random basis are marked: each keeps
    the step path."""
    D, rng = 5, np.random.default_rng(3)
    fourier = LocalOp(dft_matrix(D))
    ballot = Ballot(D, 2, [1, 0], lambda k: 1, lambda w: fourier if w else None, shift_family(D))
    assert ballot.labels(BRANCH) is None
    _check(ballot, 4, 6)
    hand_built = MeasurementFamily((D, D), shift_family(D).targets)
    assert hand_built.monomial is None
    ballot = _traveling_ballot(ProtocolConfig(D=D, N=3), [1, 0, 1])._replace(readout=hand_built)
    assert ballot.labels(BRANCH) is None
    _check(ballot, 5, 6)
    s3 = groups.symmetric_group_3()
    Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    rep = groups.Representation(s3, [Q @ M @ Q.conj().T for M in groups.regular_representation(s3).matrices])
    assert rep.candidate_family.monomial is None
    for choices in ([1, 4], [2, 5, 3]):
        assert groups.run_group_traveling(s3, rep, choices, "branch", rng) == s3.product(choices)
