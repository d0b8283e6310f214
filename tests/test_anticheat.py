"""Anti-cheating scheme tests against the dense oracle and exact structure."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote.anticheat import (
    VARIANTS,
    AuthoritySecrets,
    RepeatedReadout,
    authority_correct,
    authority_readout,
    play,
    random_secrets,
    run_repeated,
    run_round,
    setup,
    vote_distributed,
    vote_measurement_masks,
    vote_traveling,
    wrap_correction_diag,
)
from qvote.backends import get_backend
from qvote.branches import branch_inner, phase_family, to_dense
from qvote.matrices import phase_state
from qvote.states import align_global_phase, trace_distance, maximally_mixed


SECRETS = AuthoritySecrets(yes_level=1, no_level=0, offset=0.3)


class TestSecrets:
    def test_valid_example(self):
        AuthoritySecrets(1, 0, 0.3).validate(8, 3)

    def test_gap_times_n_must_stay_below_d(self):
        with pytest.raises(ValueError, match="yes_level - no_level"):
            AuthoritySecrets(2, 0, 0.1).validate(4, 3)  # 6 >= 4

    def test_equal_levels_rejected(self):
        with pytest.raises(ValueError):
            AuthoritySecrets(1, 1, 0.0).validate(8, 3)

    def test_offset_range(self):
        with pytest.raises(ValueError):
            AuthoritySecrets(1, 0, 2 * np.pi).validate(8, 3)

    @pytest.mark.parametrize("D,N,levels", [(8.0, 3, (1, 0)), (8, 3.0, (1, 0)),
                                            (8, 3, (1.5, 0)), (8, 3, (2, 0.5))])
    def test_fractional_sizes_and_levels_rejected(self, D, N, levels):
        # these used to fail inside numpy with a TypeError
        secrets = AuthoritySecrets(*levels, 0.3)
        with pytest.raises(ValueError, match="must be integers"):
            secrets.validate(D, N)
        with pytest.raises(ValueError, match="must be integers"):
            run_round(D, N, secrets, [1, 1, 0], np.random.default_rng(0))
        with pytest.raises(ValueError, match="must be integers"):
            setup(D, N, secrets if levels != (1, 0) else None, np.random.default_rng(0))
        assert run_round(np.int64(8), 3, AuthoritySecrets(np.int64(1), 0, 0.3), [1, 1, 0],
                         np.random.default_rng(0))[0].q == 2

    def test_random_secrets_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_secrets(8, 3, rng)
            s.validate(8, 3)

    def test_setup_ballot_reduced_density(self):
        rng = np.random.default_rng(1)
        round_ = setup(5, 3, SECRETS, rng, backend="branch")
        bk = round_.backend
        for reg in range(3):
            rho = bk.reduced(round_.state, [reg])
            assert trace_distance(rho, maximally_mixed(5).matrix) <= 1e-12


class TestVoteMeasurement:
    def test_outcome_uniform_and_choice_independent(self):
        # exhaustive outcome distribution at small D: uniform 1/D for both
        # choices, so the announcement reveals nothing about the vote
        D = 3
        for choice_theta in (SECRETS.yes_angle(D), SECRETS.no_angle(D)):
            bk = get_backend("dense")
            state = bk.ghz(D, 2)
            state = bk.attach(state, D, phase_state(D, choice_theta))
            masks = vote_measurement_masks(D)
            mat = state.tensor().reshape(D, D, D)
            for r, m in enumerate(masks):
                p = 0.0
                for b in range(D):
                    for v in range(D):
                        if m[b, v]:
                            p += float(np.sum(np.abs(mat[:, b, v]) ** 2))
                assert p == pytest.approx(1.0 / D, abs=1e-12)

    def test_r_zero_gives_unwrapped_state(self):
        # with outcome r = 0 the post-vote state has no wrap terms:
        # proportional to sum_k e^{i k theta} |k>^(N+1)
        D, N = 3, 2
        rng = np.random.default_rng(0)
        for _ in range(40):
            round_ = setup(D, N, SECRETS, np.random.default_rng(0), backend="branch")
            r = vote_distributed(round_, 0, "yes", rng)
            if r == 0:
                theta = SECRETS.yes_angle(D)
                expect = np.zeros(D**3, dtype=complex)
                for k in range(D):
                    idx = k * D * D + k * D + k
                    expect[idx] = np.exp(1j * k * theta) / np.sqrt(D)
                assert_allclose(align_global_phase(to_dense(round_.state).amps), align_global_phase(expect),
                                rtol=0, atol=1e-12)
                break
        else:
            pytest.skip("outcome 0 not drawn")

    def test_double_vote_rejected(self):
        rng = np.random.default_rng(4)
        round_ = setup(4, 2, AuthoritySecrets(1, 0, 0.1), rng)
        vote_distributed(round_, 0, "yes", rng)
        with pytest.raises(ValueError, match="already voted"):
            vote_distributed(round_, 0, "no", rng)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_post_vote_state_carries_wrap_phase(self, r):
        # forcing outcome r: the first r correlated components carry the
        # extra full-cycle phase e^{i D theta} until the authority corrects it
        D, N = 3, 2
        theta = SECRETS.yes_angle(D)
        bk = get_backend("dense")
        state = bk.ghz(D, N)
        state = bk.attach(state, D, phase_state(D, theta))
        from qvote.anticheat import vote_measurement_masks
        from qvote.matrices import shift_matrix

        p, state = bk.project_diag(state, [0, 2], vote_measurement_masks(D)[r])
        assert p == pytest.approx(1.0 / D, abs=1e-12)
        if r:
            state = bk.apply_local(state, 2, shift_matrix(D, r))
        expect = np.zeros((D,) * (N + 1), dtype=complex)
        for k in range(D):
            phase = (D + k - r) * theta if k < r else (k - r) * theta
            expect[(k,) * (N + 1)] = np.exp(1j * phase) / np.sqrt(D)
        assert_allclose(align_global_phase(state.amps), align_global_phase(expect.reshape(-1)),
                        rtol=0, atol=1e-12)


class TestHonestRuns:
    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_distributed_all_vote_vectors(self, backend):
        D, N = 8, 3
        rng = np.random.default_rng(11)
        for votes in itertools.product((0, 1), repeat=N):
            res, _ = run_round(D, N, SECRETS, votes, rng, backend=backend)
            assert not res.cheat_detected
            assert res.q == sum(votes) * SECRETS.gap
            assert res.m_inferred == sum(votes)
            assert res.probability == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_traveling_matches_distributed(self, backend):
        D, N = 8, 3
        rng = np.random.default_rng(21)
        for votes in itertools.product((0, 1), repeat=N):
            a, _ = run_round(D, N, SECRETS, votes, rng, backend=backend, variant="traveling")
            b, _ = run_round(D, N, SECRETS, votes, rng, backend=backend, variant="distributed")
            assert (a.q, a.m_inferred) == (b.q, b.m_inferred)

    def test_wider_gap_readout(self):
        secrets = AuthoritySecrets(3, 1, 0.2)
        rng = np.random.default_rng(31)
        res, _ = run_round(16, 3, secrets, [1, 1, 1], rng)
        assert res.q == 6 and res.m_inferred == 3

    def test_corrected_state_is_the_readout_target(self):
        # after the honest corrections the 2N-register state equals the
        # readout state with index m * gap exactly
        from qvote.branches import phase_ghz

        D, N = 8, 3
        rng = np.random.default_rng(51)
        for votes in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
            round_ = setup(D, N, SECRETS, rng, backend="branch")
            for voter, v in enumerate(votes):
                vote_distributed(round_, voter, v, rng)
            authority_correct(round_)
            q = sum(votes) * SECRETS.gap
            target = phase_ghz(D, 2 * N, 2 * np.pi * q / D)
            overlap = abs(branch_inner(target, round_.state))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_traveling_voting_register_disentangles(self):
        D, N = 4, 3
        rng = np.random.default_rng(41)
        round_ = setup(D, N, SECRETS, rng, variant="traveling", backend="branch")
        vote_traveling(round_, 0, "yes", rng)
        # drop() inside the vote already asserts product form; the ballot
        # must still be two registers afterwards
        assert round_.backend.dims(round_.state) == (D, D)

    def test_correction_register_independence(self):
        D, N = 8, 3
        base_rng_seed = 77
        finals = []
        for reg in (0, 1, 4):
            rng = np.random.default_rng(base_rng_seed)
            round_ = setup(D, N, SECRETS, rng, backend="branch")
            for voter, v in enumerate([1, 0, 1]):
                vote_distributed(round_, voter, v, rng)
            authority_correct(round_, register=reg)
            finals.append(to_dense(round_.state).amps)
        assert_allclose(align_global_phase(finals[0]), align_global_phase(finals[1]), rtol=0, atol=1e-12)
        assert_allclose(align_global_phase(finals[0]), align_global_phase(finals[2]), rtol=0, atol=1e-12)

    def test_correction_order_immaterial(self):
        D = 8
        rng = np.random.default_rng(5)
        round_ = setup(D, 3, SECRETS, rng, backend="branch")
        for voter, v in enumerate([1, 1, 0]):
            vote_distributed(round_, voter, v, rng)
        rs = [int(r) for r in round_.announced]
        bk = round_.backend
        a = round_.state
        b = round_.state
        for r in rs:
            a = bk.apply_local(a, 0, wrap_correction_diag(D, r, SECRETS.offset))
        for r in reversed(rs):
            b = bk.apply_local(b, 0, wrap_correction_diag(D, r, SECRETS.offset))
        assert_allclose(align_global_phase(to_dense(a).amps), align_global_phase(to_dense(b).amps),
                        rtol=0, atol=1e-12)

    def test_missing_announcement_rejected(self):
        rng = np.random.default_rng(6)
        round_ = setup(8, 3, SECRETS, rng)
        vote_distributed(round_, 0, "yes", rng)
        with pytest.raises(ValueError, match="have not announced"):
            authority_correct(round_)

    def test_all_r_zero_makes_wrap_correction_identity(self):
        assert np.allclose(wrap_correction_diag(5, 0, 0.3), np.eye(5))


class TestReadout:
    def test_readout_family_is_orthonormal(self):
        for D, regs, gap in [(8, 6, 1), (8, 4, 2), (5, 10, 1)]:
            targets = phase_family(D, regs, gap).targets
            n = len(targets)
            gram = np.array(
                [[branch_inner(targets[i], targets[j]) for j in range(n)] for i in range(n)]
            )
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    def test_illegal_index_flags_cheat(self):
        # prepare the readout state with q = 1 while the gap is 2
        D, N = 8, 3
        secrets = AuthoritySecrets(2, 0, 0.0)
        rng = np.random.default_rng(3)
        round_ = setup(D, N, secrets, rng, backend="branch")
        from qvote.branches import phase_ghz

        round_.state = phase_ghz(D, N, 2 * np.pi * 1 / D)
        round_.announced = [0] * N
        round_.corrected = True
        res = authority_readout(round_, rng)
        assert res.cheat_detected
        assert res.error_outcome or res.q not in range(0, D, 2)

    def test_multiple_above_n_flags_cheat(self):
        # q = 5 * gap with N = 3 voters cannot be a legal yes-count
        D, N = 8, 3
        rng = np.random.default_rng(9)
        round_ = setup(D, N, SECRETS, rng, backend="branch")
        from qvote.branches import phase_ghz

        round_.state = phase_ghz(D, N, 2 * np.pi * 5 / D)
        round_.announced = [0] * N
        round_.corrected = True
        res = authority_readout(round_, rng)
        assert res.cheat_detected and res.m_inferred is None and res.q == 5

    def test_readout_requires_corrections(self):
        rng = np.random.default_rng(1)
        round_ = setup(8, 2, SECRETS, rng)
        vote_distributed(round_, 0, 1, rng)
        vote_distributed(round_, 1, 0, rng)
        with pytest.raises(ValueError, match="corrections"):
            authority_readout(round_, rng)


class TestRepeated:
    def test_honest_repetitions_never_flag(self):
        rng = np.random.default_rng(12)
        agg = run_repeated(8, 3, SECRETS, [1, 0, 1], K=5, rng=rng)
        assert not agg.cheat_detected
        assert set(agg.qs) == {2 * SECRETS.gap}

    def test_k1_never_flags_on_disagreement(self):
        rng = np.random.default_rng(13)
        agg = run_repeated(8, 3, SECRETS, [1, 1, 1], K=1, rng=rng)
        assert not agg.cheat_detected

    def test_disagreeing_rounds_flag(self):
        from qvote.anticheat import ReadoutResult

        seq = iter([2, 3, 2])

        def fake_round(rng):
            q = next(seq)
            return ReadoutResult(q, q, False, False, 1.0)

        agg = run_repeated(8, 3, SECRETS, [1, 1, 0], K=3, rng=np.random.default_rng(0), round_fn=fake_round)
        assert agg.cheat_detected

    def test_branch_scales_to_n6(self):
        rng = np.random.default_rng(14)
        res, round_ = run_round(8, 6, AuthoritySecrets(1, 0, 0.5), [1, 1, 0, 1, 0, 1], rng)
        assert res.q == 4 and not res.cheat_detected
        assert len(round_.backend.dims(round_.state)) == 12
        # the branch representation never grew past D branches
        assert len(round_.state.branches) <= 8


class TestLabelFrame:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_engine_equals_the_played_round(self, data):
        """A branch round in the label frame against the same round played step
        by step on branch, the reference: per repetition the same records,
        announcements, transcript and drawn secrets, the probability at 1e-12,
        and a corrected state that reads out again alike; then the generator's
        next draw."""
        D = data.draw(hst.integers(2, 8))
        N = data.draw(hst.integers(1, D - 1))
        gap = data.draw(hst.integers(1, (D - 1) // N))
        no = data.draw(hst.integers(0, D - 1 - gap))
        offset = data.draw(hst.floats(0.0, 2 * np.pi / D, exclude_max=True))
        secrets = data.draw(hst.sampled_from([None, AuthoritySecrets(no + gap, no, offset)]))
        votes = data.draw(hst.lists(hst.integers(0, 1), min_size=N, max_size=N))
        variant = data.draw(hst.sampled_from(VARIANTS))
        K = data.draw(hst.integers(1, 3))
        seed = data.draw(hst.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        def played(r):
            round_ = setup(D, N, secrets, r, variant, backend="branch")
            return play(round_, votes, r), round_

        for _ in range(K):
            got, round_ = run_round(D, N, secrets, votes, rng, "branch", variant)
            ref, ref_round = played(ref_rng)
            assert got.probability == pytest.approx(ref.probability, abs=1e-12)
            assert dataclasses.replace(got, probability=0.0) == dataclasses.replace(ref, probability=0.0)
            assert (round_.announced, round_.secrets, round_.corrected) == \
                (ref_round.announced, ref_round.secrets, True)
            assert round_.transcript == ref_round.transcript
            assert round_.state.dims == ref_round.state.dims
            assert abs(branch_inner(ref_round.state, round_.state)) == pytest.approx(1.0, abs=1e-12)
            assert authority_readout(round_, rng).q == authority_readout(ref_round, ref_rng).q
        agg = run_repeated(D, N, secrets, votes, K, rng, variant=variant)
        ref_agg = run_repeated(D, N, secrets, votes, K, ref_rng, variant=variant,
                               round_fn=lambda r: played(r)[0])
        assert (agg.qs, agg.cheat_detected) == (ref_agg.qs, ref_agg.cheat_detected)
        assert rng.random() == ref_rng.random()


class TestImmutability:
    def test_dense_amplitudes_read_only(self):
        from qvote.states import make_uniform_ghz

        s = make_uniform_ghz(3, 2)
        with pytest.raises(ValueError):
            s.amps[0] = 1.0
        with pytest.raises(AttributeError):
            s.dims = (9,)

    def test_branch_state_read_only(self):
        from qvote.branches import ghz_branches

        s = ghz_branches(3, 2)
        assert isinstance(s.branches, tuple)
        with pytest.raises(AttributeError):
            s.dims = (9,)
        with pytest.raises(AttributeError):
            s.branches = ()

    def test_branch_factors_read_only(self):
        from qvote.branches import (
            VecFactor,
            apply_branch_local,
            ghz_branches,
            phase_ghz,
            shifted_ghz,
        )

        # A basis-state slot holds its label as a Python int, immutable by type.
        s = apply_branch_local(ghz_branches(3, 2), 1, np.eye(3)[[1, 2, 0]] @ np.diag([1, 1j, -1]))
        assert all(type(f) is int for _, fs in s.branches for f in fs)
        vec = VecFactor(np.array([0.6, 0.8j, 0.0]))
        with pytest.raises(AttributeError):
            vec.amps = np.zeros(3)
        with pytest.raises(ValueError):
            vec.amps[0] = 1.0
        # Label families hold int labels; the GHZ families share one row per label.
        for fam in (ghz_branches(4, 5), phase_ghz(4, 5, 0.3), shifted_ghz(4, (0, 1, 3))):
            assert all(type(f) is int for _, fs in fam.branches for f in fs)
        assert {id(fs) for _, fs in ghz_branches(4, 5).branches} == \
            {id(fs) for _, fs in phase_ghz(4, 5, 0.3).branches}

    def test_density_matrix_read_only(self):
        from qvote.states import maximally_mixed

        rho = maximally_mixed(3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
