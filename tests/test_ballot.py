"""The one GHZ ballot behind every honest scheme and group product, and the
dense backend's permutations.

Each ballot entry point is checked against a copy of the hand-written loop it
replaced, kept here as the reference: under a shared seed both make the same
backend calls, so the outcome, the announced values, the post-measurement
state and the generator's state after the run are equal bitwise. The dense
controlled shift and swap move amplitudes; they are checked against the
matrix products they replaced.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote import groups
from qvote.anticheat import (
    AuthoritySecrets,
    setup,
    vote_traveling,
    wrap_correction_diag,
)
from qvote.backends import BranchBackend, DenseBackend
from qvote.branches import phase_family, shift_family
from qvote.groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    cyclic_group,
    klein4,
    regular_representation,
    run_abelian_distributed,
    run_group_traveling,
)
from qvote.matrices import fourier_basis_kets, phase_vote_matrix, shift_matrix, swap_pair_matrix
from qvote.protocols import (
    ProtocolConfig,
    run_broadcast,
    run_distributed,
    run_dolev,
    run_survey,
    run_traveling,
)
from qvote.states import DenseState, apply_joint, cached_op

BACKENDS = [DenseBackend(), BranchBackend()]
IDS = ["dense", "branch"]


# ---------------------------------------------------------------------------
# the hand-written ballots the shared body replaced


def _announce_ref(bk, state, rng, D, N):
    announced, kets = [], fourier_basis_kets(D)
    for k in range(N):
        x, state, _ = bk.measure_local_kets(state, k, kets, rng)
        announced.append(int(x))
    return announced, state


def _dolev_ref(bk, rng, N, votes):
    D = N + 1
    state = bk.ghz(D, N)
    for k, v in enumerate(votes):
        if v:
            state = bk.apply_local(state, k, cached_op(phase_vote_matrix, D, -1))
    announced, state = _announce_ref(bk, state, rng, D, N)
    return sum(announced) % D, announced, [state]


def _broadcast_ref(bk, rng, D, N, sender, message):
    state = bk.ghz(D, N)
    if message:
        state = bk.apply_local(state, sender, cached_op(phase_vote_matrix, D, -message))
    announced, state = _announce_ref(bk, state, rng, D, N)
    return sum(announced) % D, announced, [state]


def _survey_ref(bk, rng, D, salaries):
    state = bk.ghz(D, 2)
    for s in salaries:
        if s:
            state = bk.apply_local(state, 1, cached_op(shift_matrix, D, s))
    outcome, state, _ = bk.measure_targets(state, shift_family(D), rng)
    return int(outcome), [], [state]


def _group_ref(bk, rng, group, rep, choices):
    state = bk.ghz(rep.dim, 2)
    for g in choices:
        state = bk.apply_local(state, 1, rep.ops[int(group.inverse[g])])
    outcome, state, _ = bk.measure_targets(state, rep.candidate_family, rng)
    return int(group.inverse[outcome]), [], [state]


def _abelian_ref(bk, rng, factors, choices):
    result, states, n = [], [], len(choices)
    for f, d in enumerate(factors):
        state = bk.ghz(d, n)
        for k, ch in enumerate(choices):
            if ch[f]:
                state = bk.apply_local(state, k, cached_op(phase_vote_matrix, d, ch[f]))
        outcome, state, _ = bk.measure_targets(state, phase_family(d, n), rng)
        result.append(int(outcome))
        states.append(state)
    return tuple(result), [], states


# ---------------------------------------------------------------------------
# the entry points, with their post-measurement states


def _announced_and_post(res):
    announced = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
    post = [s["state"] for s in res.transcript.states if s["label"] == "post-measurement"]
    return announced, post


def _recording_body(monkeypatch):
    """Every ballot ``groups`` runs from now on, recorded with its states."""
    runs, body = [], groups._run_ballot

    def recording(*args, **kwargs):
        res = body(*args, **kwargs, record_states=True)
        runs.append(res)
        return res

    monkeypatch.setattr(groups, "_run_ballot", recording)
    return runs


def _run_new(bk, rng, scheme, args):
    if scheme == "dolev":
        N, votes = args
        res = run_dolev(ProtocolConfig(D=N + 1, N=N), votes, bk, rng=rng, record_states=True)
        return (res.m, *_announced_and_post(res))
    if scheme == "broadcast":
        D, N, sender, message = args
        res = run_broadcast(ProtocolConfig(D=D, N=N), sender, message, bk, rng=rng,
                            record_states=True)
        return (res.m, *_announced_and_post(res))
    if scheme == "survey":
        D, salaries = args
        res = run_survey(ProtocolConfig(D=D, N=len(salaries)), salaries, bk, rng=rng,
                         record_states=True)
        assert res.average == Fraction(res.m, len(salaries))
        return (res.m, *_announced_and_post(res))
    with pytest.MonkeyPatch.context() as mp:
        runs = _recording_body(mp)
        if scheme == "group":
            m = run_group_traveling(*args, bk, rng=rng)
        else:
            m = run_abelian_distributed(*args, bk, rng=rng)
    return m, [], [_announced_and_post(r)[1][0] for r in runs]


# Z3 with label a standing for the element a + 1: the identity is index 2, so a
# party whose choice is index 0 still applies a non-identity operator.
Z3_RELABELED = FiniteGroup([[(a + b + 1) % 3 for b in range(3)] for a in range(3)])
REFERENCES = {"dolev": _dolev_ref, "broadcast": _broadcast_ref, "survey": _survey_ref,
              "group": _group_ref, "abelian": _abelian_ref}


@hst.composite
def _ballot_args(draw, scheme):
    if scheme == "dolev":
        N = draw(hst.integers(1, 4))
        return N, draw(hst.lists(hst.integers(0, 1), min_size=N, max_size=N))
    if scheme == "broadcast":
        D, N = draw(hst.integers(2, 5)), draw(hst.integers(1, 4))
        return D, N, draw(hst.integers(0, N - 1)), draw(hst.integers(0, D - 1))
    if scheme == "survey":
        D = draw(hst.integers(2, 6))
        salaries = draw(hst.lists(hst.integers(0, 2), min_size=1, max_size=4)
                        .filter(lambda s: sum(s) < D))
        return D, salaries
    if scheme == "group":
        name = draw(hst.sampled_from(["klein4-pauli", "klein4", "s3", "z4", "z3-relabeled"]))
        if name == "klein4-pauli":
            group, rep = klein4()
        else:
            group = Z3_RELABELED if name == "z3-relabeled" else BUILTIN_GROUPS[name]()
            rep = regular_representation(group)
        choices = draw(hst.lists(hst.integers(0, group.order - 1), max_size=3))
        return group, rep, choices
    factors = draw(hst.lists(hst.integers(2, 4), min_size=1, max_size=2))
    choices = draw(hst.lists(hst.tuples(*[hst.integers(0, d - 1) for d in factors]),
                             min_size=1, max_size=3))
    return factors, choices


@pytest.mark.parametrize("scheme", sorted(REFERENCES))
@pytest.mark.parametrize("bk", BACKENDS, ids=IDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=hst.data(), seed=hst.integers(0, 2**32 - 1))
def test_entry_points_equal_the_hand_written_ballots(bk, scheme, data, seed):
    args = data.draw(_ballot_args(scheme))
    ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want_m, want_announced, want_states = REFERENCES[scheme](bk, ref_rng, *args)
    got_m, got_announced, got_states = _run_new(bk, new_rng, scheme, args)
    assert got_m == want_m
    assert got_announced == want_announced
    assert len(got_states) == len(want_states)
    for got, want in zip(got_states, want_states):
        assert np.array_equal(bk.amplitudes(got), bk.amplitudes(want))
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("backend", IDS)
def test_transcripts_share_the_ballot_events(backend):
    """Broadcast, survey and dolev record the tallies' events and snapshots."""
    rng = np.random.default_rng(3)
    runs = [run_broadcast(ProtocolConfig(D=4, N=3), 1, 2, backend, rng=rng, record_states=True),
            run_survey(ProtocolConfig(D=5, N=3), [1, 0, 2], backend, rng=rng, record_states=True),
            run_dolev(ProtocolConfig(D=4, N=3), [1, 0, 1], backend, rng=rng, record_states=True)]
    labels = ["ballot", "after-voter-0", "after-voter-1", "after-voter-2", "post-measurement"]
    for res in runs:
        assert [s["label"] for s in res.transcript.states] == labels
        assert [h["voter"] for h in res.transcript.hidden if "voter" in h] == [0, 1, 2]
        tally = [e for e in res.transcript.public if e["event"] == "tally"]
        assert [e["m"] for e in tally] == [res.m]
    assert [h["vote"] for h in runs[0].transcript.hidden] == [0, 2, 0]
    assert runs[1].transcript.public[-1] == {"event": "average", "value": "1"}


def test_group_privacy_checks_both_registers(monkeypatch):
    runs = _recording_body(monkeypatch)
    group = BUILTIN_GROUPS["s3"]()
    assert run_group_traveling(group, regular_representation(group), [4, 1], "branch",
                               record_privacy=True) == group.mul(4, 1)
    privacy = runs[0].transcript.privacy
    assert [(e["step"], e["register"]) for e in privacy] == [(s, r) for s in range(3) for r in (0, 1)]
    assert max(e["trace_distance"] for e in privacy) <= 1e-12


# ---------------------------------------------------------------------------
# party inputs are integers


Z3 = cyclic_group(3)
FRACTIONAL = [
    ("votes", lambda: run_distributed(ProtocolConfig(D=5, N=2), [1.0, 0.9], "branch")),
    ("votes", lambda: run_traveling(ProtocolConfig(D=5, N=2), [1, 0.5], "branch")),
    ("votes", lambda: run_dolev(ProtocolConfig(D=3, N=2), [np.float64(1), 0], "branch")),
    ("salary multiplicities", lambda: run_survey(ProtocolConfig(D=5, N=2), [1.7, 2], "branch")),
    ("sender and message", lambda: run_broadcast(ProtocolConfig(D=5, N=2), 0, 2.5, "branch")),
    ("sender and message", lambda: run_broadcast(ProtocolConfig(D=5, N=2), 0.5, 2, "branch")),
    ("group choices", lambda: run_group_traveling(Z3, regular_representation(Z3), [1.9, 1])),
    ("choice components", lambda: run_abelian_distributed([3], [(1.5,), (1,)])),
    ("cyclic factor moduli", lambda: run_abelian_distributed([3.5], [(1,)])),
    ("D and N", lambda: ProtocolConfig(D=4.5, N=3)),
    ("D and N", lambda: ProtocolConfig(D=4, N="3")),
]


@pytest.mark.parametrize("what, call", FRACTIONAL)
def test_fractional_party_inputs_raise(what, call):
    with pytest.raises(ValueError, match=f"^{what} must be integers, got "):
        call()


def test_numpy_integers_pass():
    i = np.int64
    cfg = ProtocolConfig(D=i(5), N=i(3))
    assert run_distributed(cfg, np.array([1, 0, 1]), "branch").m == 2
    assert run_survey(cfg, [i(1), i(2), 0], "branch").m == 3
    assert run_broadcast(cfg, i(2), i(4), "branch").m == 4
    assert run_group_traveling(Z3, regular_representation(Z3), np.array([2, 2])) == 1
    assert run_abelian_distributed(np.array([3, 4]), [np.array([1, 3]), (i(1), 2)]) == (2, 1)


# ---------------------------------------------------------------------------
# dense permutations move amplitudes


def _controlled_shift_ref(state, control, target, shifts):
    """The block matrix sum_c |c><c| x X^shifts[c] the dense backend applied before."""
    eye = np.eye(state.dims[control])
    U = sum(np.kron(np.diag(eye[c]), shift_matrix(state.dims[target], int(s)))
            for c, s in enumerate(shifts))
    return apply_joint(state, [control, target], U)


@hst.composite
def _dense_states(draw, equal_pair=False):
    dims = draw(hst.lists(hst.integers(2, 4), min_size=2, max_size=4))
    i, j = draw(hst.permutations(range(len(dims))))[:2]
    if equal_pair:
        dims[j] = dims[i]
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    amps[1:][rng.random(amps.size - 1) < 0.3] = 0.0  # exact zeros, as in a ballot
    return DenseState(dims, amps / np.linalg.norm(amps)), i, j


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_dense_states(), data=hst.data())
def test_dense_controlled_shift_equals_the_matrix_product(case, data):
    state, control, target = case
    shifts = data.draw(hst.lists(hst.integers(-9, 9), min_size=state.dims[control],
                                 max_size=state.dims[control]))
    got = DenseBackend().controlled_shift(state, control, target, shifts)
    want = _controlled_shift_ref(state, control, target, shifts)
    assert got.dims == want.dims
    assert np.array_equal(got.amps, want.amps)  # -0.0 == 0.0: the sign of zero is free


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_dense_states(equal_pair=True))
def test_dense_swap_equals_the_matrix_product(case):
    state, i, j = case
    got = DenseBackend().swap(state, i, j)
    want = apply_joint(state, [i, j], swap_pair_matrix(state.dims[i]))
    assert np.array_equal(got.amps, want.amps)


@pytest.mark.parametrize("bk", BACKENDS, ids=IDS)
def test_permutations_raise_the_same_words_on_both_backends(bk):
    state = bk.attach(bk.ghz(3, 2), 2, 0)  # dims (3, 3, 2)
    for shifts in ([0, 1], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match="^one shift per control label required$"):
            bk.controlled_shift(state, 0, 1, shifts)
    with pytest.raises(ValueError, match="^swap requires equal register dimensions$"):
        bk.swap(state, 0, 2)
    with pytest.raises(ValueError, match="registers must be distinct"):
        bk.swap(state, 1, 1)


def test_dense_traveling_vote_caches_no_operator():
    """Only the per-r wrap corrections and voter shifts are cached operators; the
    controlled shift that disentangles the voting register builds none."""
    D, N = 11, 2
    secrets = AuthoritySecrets(1, 0, 0.2)
    for r in range(D):
        cached_op(wrap_correction_diag, D, r, secrets.offset)
        cached_op(shift_matrix, D, r)
    round_ = setup(D, N, secrets, np.random.default_rng(2), "traveling", "dense")
    before = cached_op.cache_info()
    rng = np.random.default_rng(9)
    for voter, choice in enumerate(["yes", "no"]):
        vote_traveling(round_, voter, choice, rng)
    after = cached_op.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)
