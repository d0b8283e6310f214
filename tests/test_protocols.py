"""Honest-protocol tests: tallies, privacy, anonymity, announcements."""

from __future__ import annotations

import itertools

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvote.backends import get_backend
from qvote.branches import to_dense
from qvote.matrices import dft_matrix, phase_vote_matrix, shift_matrix
from qvote.protocols import (
    ProtocolConfig,
    run_broadcast,
    run_classical_baseline,
    run_distributed,
    run_dolev,
    run_survey,
    run_traveling,
    sample_zero_sum_ballots,
)
from qvote.states import DenseState, align_global_phase, apply_local, make_uniform_ghz

BACKENDS = ("dense", "branch")


def all_vote_vectors(N):
    return list(itertools.product((0, 1), repeat=N))


class TestTraveling:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_case(self, backend):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=1)
        assert run_traveling(cfg, [0, 0, 0], backend).m == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhaustive_small(self, backend):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=5)
        for votes in all_vote_vectors(3):
            assert run_traveling(cfg, votes, backend).m == sum(votes)

    def test_all_yes(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=2)
        assert run_traveling(cfg, [1, 1, 1]).m == 3

    def test_d_not_greater_than_n_rejected(self):
        cfg = ProtocolConfig(D=3, N=3, scheme="traveling")
        with pytest.raises(ValueError, match="requires D > N"):
            run_traveling(cfg, [0, 0, 0])

    def test_privacy_checkpoints(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=3)
        res = run_traveling(cfg, [1, 0, 1], record_privacy=True)
        assert res.transcript.privacy  # recorded at every step
        assert max(e["trace_distance"] for e in res.transcript.privacy) <= 1e-12

    def test_anonymity_equal_tallies_identical_states(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=0)
        amps = []
        for votes in [v for v in all_vote_vectors(3) if sum(v) == 2]:
            res = run_traveling(cfg, votes, "dense", record_states=True)
            pre = [s for s in res.transcript.states if s["label"] == "after-voter-2"][0]
            amps.append(pre["state"].amps)
        for a in amps[1:]:
            assert np.max(np.abs(a - amps[0])) <= 1e-12


class TestDistributed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_no(self, backend):
        cfg = ProtocolConfig(D=5, N=4, scheme="distributed", seed=1)
        assert run_distributed(cfg, [0, 0, 0, 0], backend).m == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhaustive(self, backend):
        cfg = ProtocolConfig(D=5, N=4, scheme="distributed", seed=9)
        for votes in all_vote_vectors(4):
            assert run_distributed(cfg, votes, backend).m == sum(votes)

    def test_example_vector(self):
        cfg = ProtocolConfig(D=5, N=4, scheme="distributed", seed=0)
        assert run_distributed(cfg, [1, 1, 0, 1]).m == 3

    def test_d_equal_n_rejected(self):
        cfg = ProtocolConfig(D=4, N=4, scheme="distributed")
        with pytest.raises(ValueError, match="requires D > N"):
            run_distributed(cfg, [0, 0, 0, 0])

    def test_privacy_every_step(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=3)
        res = run_distributed(cfg, [1, 1, 0], record_privacy=True)
        assert max(e["trace_distance"] for e in res.transcript.privacy) <= 1e-12

    def test_anonymity_equal_tallies_identical_states(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=0)
        vecs = [v for v in all_vote_vectors(3) if sum(v) == 2]
        amps = []
        for votes in vecs:
            res = run_distributed(cfg, votes, "dense", record_states=True)
            pre = [s for s in res.transcript.states if s["label"] == "after-voter-2"][0]
            amps.append(pre["state"].amps)
        for a in amps[1:]:
            assert np.max(np.abs(a - amps[0])) <= 1e-12


class TestDolev:
    def test_ballot_state_is_fourier_of_correlated_state(self):
        # The literal announcement-scheme ballot (uniform over zero-sum label
        # tuples) equals the registerwise Fourier transform of the plain
        # correlated ballot.
        D, N = 4, 3
        literal = np.zeros(D**N, dtype=complex)
        for labels in itertools.product(range(D), repeat=N):
            if sum(labels) % D == 0:
                literal[np.ravel_multi_index(labels, (D,) * N)] = 1.0
        literal /= np.linalg.norm(literal)
        s = make_uniform_ghz(D, N)
        for r in range(N):
            s = apply_local(s, r, dft_matrix(D))
        assert_allclose(align_global_phase(s.amps), align_global_phase(literal), rtol=0, atol=1e-12)

    def test_shift_vote_conjugates_to_inverse_phase(self):
        D = 5
        F = dft_matrix(D)
        conj = F.conj().T @ shift_matrix(D) @ F
        assert np.max(np.abs(conj - phase_vote_matrix(D, -1))) <= 1e-12

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhaustive_tallies(self, backend):
        cfg = ProtocolConfig(D=4, N=3, scheme="dolev", seed=11)
        for votes in all_vote_vectors(3):
            res = run_dolev(cfg, votes, backend)
            assert res.m == sum(votes)

    def test_example_vector(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="dolev", seed=2)
        assert run_dolev(cfg, [0, 1, 0]).m == 1

    def test_wrong_dimension_rejected(self):
        cfg = ProtocolConfig(D=5, N=3, scheme="dolev")
        with pytest.raises(ValueError, match="requires D = N\\+1"):
            run_dolev(cfg, [0, 0, 0])

    def test_zero_sum_hidden_labels(self):
        cfg = ProtocolConfig(D=5, N=4, scheme="dolev", seed=None)
        rng = np.random.default_rng(31)
        for _ in range(25):
            votes = [int(b) for b in rng.integers(0, 2, size=4)]
            res = run_dolev(cfg, votes, "branch", rng=rng)
            rec = [h for h in res.transcript.hidden if "labels" in h][0]
            assert rec["label_sum_mod_D"] == 0

    def test_announcement_sum_invariant_under_permutation(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="dolev", seed=17)
        res = run_dolev(cfg, [1, 0, 1])
        xs = [e["value"] for e in res.transcript.public if e["event"] == "announce"]
        assert sum(reversed(xs)) % 4 == res.m


class TestBroadcast:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_message(self, backend):
        cfg = ProtocolConfig(D=3, N=2, scheme="broadcast", seed=4)
        assert run_broadcast(cfg, 0, 0, backend).m == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_messages_and_senders(self, backend):
        cfg = ProtocolConfig(D=5, N=3, scheme="broadcast", seed=6)
        for sender in range(3):
            for m in range(5):
                assert run_broadcast(cfg, sender, m, backend).m == m

    def test_message_out_of_range(self):
        cfg = ProtocolConfig(D=5, N=3, scheme="broadcast", seed=0)
        with pytest.raises(ValueError):
            run_broadcast(cfg, 0, 5)

    def test_sender_indistinguishable_from_announcements(self):
        # Exhaustive: the announcement-tuple distribution depends only on the
        # message, not on who sent it (D=3, N=2).
        D, N, m = 3, 2, 2
        dists = []
        for sender in range(N):
            state = make_uniform_ghz(D, N)
            state = apply_local(state, sender, phase_vote_matrix(D, -m))
            for r in range(N):
                state = apply_local(state, r, dft_matrix(D))
            dists.append(state.probabilities())
        assert np.max(np.abs(dists[0] - dists[1])) <= 1e-12

    def test_no_sender_in_public_transcript(self):
        cfg = ProtocolConfig(D=3, N=2, scheme="broadcast", seed=8)
        res = run_broadcast(cfg, 1, 2)
        assert all("sender" not in e for e in res.transcript.public)


class TestSurvey:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_salaries(self, backend):
        cfg = ProtocolConfig(D=4, N=2, scheme="survey", seed=1)
        res = run_survey(cfg, [0, 0], backend)
        assert res.m == 0 and res.average == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_example(self, backend):
        cfg = ProtocolConfig(D=10, N=3, scheme="survey", seed=2)
        res = run_survey(cfg, [2, 3, 1], backend)
        assert res.m == 6
        assert res.average == 2

    def test_wraparound_rejected(self):
        cfg = ProtocolConfig(D=6, N=3, scheme="survey", seed=0)
        with pytest.raises(ValueError, match="requires sum"):
            run_survey(cfg, [3, 2, 1])


class TestClassicalBaseline:
    def test_all_no(self):
        rng = np.random.default_rng(0)
        assert run_classical_baseline(4, [0, 0, 0, 0], rng).m == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tally_correct_over_random_ballots(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        votes = [int(v) for v in rng.integers(0, 2, size=n)]
        res = run_classical_baseline(n, votes, rng)
        assert res.m == sum(votes)

    def test_example_vector(self):
        rng = np.random.default_rng(12)
        assert run_classical_baseline(4, [1, 0, 1, 1], rng).m == 3

    def test_ballot_marginals_uniform(self):
        # chi-square on every slot over 10^5 sampled zero-sum ballot sets
        from scipy.stats import chisquare

        N = 4
        rng = np.random.default_rng(99)
        samples = sample_zero_sum_ballots(N, 100_000, rng)
        for slot in range(N):
            counts = np.bincount(samples[:, slot], minlength=N + 1)
            assert chisquare(counts).pvalue > 1e-3

    def test_zero_sum_property(self):
        rng = np.random.default_rng(5)
        samples = sample_zero_sum_ballots(5, 1000, rng)
        assert np.all(samples.sum(axis=1) % 6 == 0)

    def test_padded_traveling_variant(self):
        rng = np.random.default_rng(7)
        for votes in all_vote_vectors(3):
            res = run_classical_baseline(3, list(votes), rng, variant="padded-traveling")
            assert res.m == sum(votes)


class TestBackendAgreement:
    def test_same_seed_same_announcements(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="dolev", seed=1234)
        a = run_dolev(cfg, [1, 0, 1], "dense")
        b = run_dolev(cfg, [1, 0, 1], "branch")
        assert a.transcript.public == b.transcript.public

    def test_intermediate_states_agree(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=7)
        a = run_distributed(cfg, [1, 1, 0], "dense", record_states=True)
        b = run_distributed(cfg, [1, 1, 0], "branch", record_states=True)
        assert len(a.transcript.states) == len(b.transcript.states)
        for sa, sb in zip(a.transcript.states, b.transcript.states):
            da = sa["state"].amps
            db = to_dense(sb["state"]).amps
            assert_allclose(align_global_phase(da), align_global_phase(db), rtol=0, atol=1e-12)
