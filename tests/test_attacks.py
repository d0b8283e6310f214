"""Adversary-model tests: phase estimation, cheater statistics, eavesdroppers."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import chisquare, kstest

from qvote import attacks
from qvote.anticheat import (
    VARIANTS,
    AuthoritySecrets,
    _cast_vote_on,
    authority_correct,
    authority_readout,
    run_repeated,
    setup,
    vote_distributed,
)
from qvote.attacks import (
    AttackReport,
    CheaterPlan,
    PhasePOVM,
    analytic_nondetection,
    analytic_pq,
    broadness_coefficient,
    cheater_conditional_distribution,
    conditional_pq,
    entangling_rho_e1,
    monte_carlo_pq,
    pair_agree_mask,
    random_product_attack,
    run_cheater_attack,
    run_classical_eavesdrop,
    run_entangling_attack,
    run_mitm_traveling,
    run_swap_attack,
    total_variation,
)
from qvote.backends import get_backend
from qvote.branches import shift_family
from qvote.matrices import (
    angle_phase_matrix,
    phase_state,
    phase_vote_matrix,
    shift_matrix,
    swap_pair_matrix,
)
from qvote.protocols import ProtocolConfig, run_distributed, run_traveling, sample_zero_sum_ballots
from qvote.states import DenseState, align_global_phase, cached_op, sample_index, trace_distance

SECRETS = AuthoritySecrets(yes_level=1, no_level=0, offset=0.3)


class TestPhasePOVM:
    def test_density_integrates_to_one(self):
        for D in (1, 2, 8):
            povm = PhasePOVM(D, 1.0)
            xs = np.linspace(0, 2 * np.pi, 20001)
            integral = np.trapezoid(povm.density(xs), xs)
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_dimension_is_uniform(self):
        povm = PhasePOVM(1, 0.7)
        xs = np.linspace(0, 2 * np.pi, 100)
        assert np.allclose(povm.density(xs), 1 / (2 * np.pi))

    def test_circular_mean_matches_true_angle(self):
        rng = np.random.default_rng(42)
        povm = PhasePOVM(8, 1.0)
        samples = povm.sample(rng, 100_000)
        mean_dir = np.angle(np.mean(np.exp(1j * samples)))
        assert abs(mean_dir - 1.0) < 0.01

    def test_sampled_density_chi_square(self):
        rng = np.random.default_rng(7)
        povm = PhasePOVM(4, 2.0)
        samples = povm.sample(rng, 100_000)
        bins = np.linspace(0, 2 * np.pi, 65)
        counts, _ = np.histogram(samples, bins=bins)
        mids = 0.5 * (bins[:-1] + bins[1:])
        expected = povm.density(mids)
        expected = expected / expected.sum() * counts.sum()
        assert chisquare(counts, expected).pvalue > 1e-3

    def test_cdf_endpoints(self):
        povm = PhasePOVM(5, 0.4)
        assert povm.cdf(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert povm.cdf(np.array([2 * np.pi]))[0] == pytest.approx(1.0, abs=1e-12)


class TestPhasePOVMExactDraw:
    @pytest.mark.parametrize("D,theta", [(4, 1.3), (7, 5.9), (2, 0.2), (1, 0.7)])
    def test_draws_follow_the_closed_form_cdf(self, D, theta):
        povm = PhasePOVM(D, theta)
        samples = povm.sample(np.random.default_rng(0), 400_000)
        assert kstest(samples, povm.cdf).statistic < 0.00215  # 5% critical value

    def test_single_draws_equal_one_batch(self):
        povm = PhasePOVM(5, 2.2)
        rng_single, rng_batch = np.random.default_rng(4), np.random.default_rng(4)
        singles = np.array([povm.sample(rng_single) for _ in range(500)])
        batch = povm.sample(rng_batch, 500)
        assert np.array_equal(singles, batch)
        assert rng_single.bit_generator.state == rng_batch.bit_generator.state

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hst.integers(min_value=1, max_value=12),
        hst.floats(allow_nan=False, allow_infinity=False),
        hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_draws_lie_in_one_turn(self, D, theta, seed):
        samples = PhasePOVM(D, theta).sample(np.random.default_rng(seed), 64)
        assert np.all((samples >= 0.0) & (samples < 2 * np.pi))

    @pytest.mark.parametrize(
        "D,theta,words",
        [
            (4, np.nan, "angle must be finite"),
            (4, np.inf, "angle must be finite"),
            (4, -np.inf, "angle must be finite"),
            (2.5, 1.0, "dimension must be an integer"),
            (True, 1.0, "dimension must be an integer"),
            (0, 1.0, "dimension must be >= 1"),
        ],
    )
    def test_bad_input_rejected(self, D, theta, words):
        with pytest.raises(ValueError, match=words):
            PhasePOVM(D, theta)


class TestAnalyticPq:
    def test_normalization(self):
        for D, s in [(8, 5), (8, 7), (6, 4)]:
            for m in range(D):
                assert analytic_pq(D, s, m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert analytic_pq(8, 5, 6, 1) == pytest.approx(0.15137, abs=5e-5)

    def test_peak_location(self):
        for m in range(8):
            dist = analytic_pq(8, 5, m)
            assert int(np.argmax(dist)) == (m - 5) % 8

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            analytic_pq(8, 3, 0)  # s <= D/2
        with pytest.raises(ValueError):
            analytic_pq(8, 8, 0)  # s >= D

    def test_broadness_coefficient_below_one(self):
        for D in (4, 6, 8, 12):
            for s in range(D // 2 + 1, D):
                c = broadness_coefficient(D, s)
                assert 0 <= c < 1
                dist = analytic_pq(D, s, 0)
                assert dist.min() > 0
                assert dist.max() / dist.min() <= (1 + c) / (1 - c) + 1e-12


class TestMonteCarloPq:
    def test_zero_trials_empty(self):
        rng = np.random.default_rng(0)
        counts = monte_carlo_pq(8, 5, 6, 0, rng)
        assert counts.sum() == 0 and len(counts) == 8

    def test_tv_against_closed_form(self):
        rng = np.random.default_rng(5)
        counts = monte_carlo_pq(8, 5, 6, 40_000, rng)
        assert total_variation(counts, analytic_pq(8, 5, 6)) <= 0.02

    def test_tv_grid_over_valid_regime(self):
        rng = np.random.default_rng(6)
        for D, s in [(4, 3), (6, 4), (6, 5), (8, 7)]:
            for m in (0, 2, D - 1):
                counts = monte_carlo_pq(D, s, m, 100_000, rng)
                assert total_variation(counts, analytic_pq(D, s, m)) <= 0.02, (D, s, m)

    def test_matches_protocol_level_simulation(self):
        # literal per-round attack runs vs the vectorized Monte Carlo
        D, s, m = 4, 3, 1
        trials = 4000
        rng = np.random.default_rng(11)
        counts = np.zeros(D, dtype=int)
        secrets = AuthoritySecrets(1, 0, 0.0)
        for _ in range(trials):
            secrets_t = AuthoritySecrets(1, 0, float(rng.uniform(0, 2 * np.pi / D)))
            res, _ = run_cheater_attack(
                D, D - 1, secrets_t, [1] * m + [0] * (D - 2 - m), CheaterPlan(s=s), rng
            )
            counts[res.q] += 1
        mc = monte_carlo_pq(D, s, m, 100_000, np.random.default_rng(3))
        assert total_variation(counts, mc) < 0.04


class TestConditionalOracle:
    def test_dense_simulation_matches_closed_expression(self):
        D, N, s = 4, 3, 3
        secrets = AuthoritySecrets(1, 0, 0.23)
        grid = np.linspace(0.1, 2 * np.pi - 0.1, 4)
        for m in range(N):
            for r in range(D):
                for ty in grid:
                    for tn in grid:
                        sim = cheater_conditional_distribution(
                            D, N, secrets, m, s, float(ty), float(tn), r, backend="dense"
                        )
                        formula = conditional_pq(D, s, m, r, float(ty), float(tn), secrets)
                        assert np.max(np.abs(sim - formula)) <= 1e-10

    def test_branch_agrees_with_dense(self):
        D, N, s = 4, 3, 3
        secrets = AuthoritySecrets(1, 0, 0.51)
        for r in (0, 2):
            a = cheater_conditional_distribution(D, N, secrets, 1, s, 1.1, 0.4, r, "dense")
            b = cheater_conditional_distribution(D, N, secrets, 1, s, 1.1, 0.4, r, "branch")
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_r_dependence_of_conditional(self):
        # The closed form published for this regime is exact for r >= 1; the
        # r = 0 conditional differs slightly (no wrapped block exists).
        D, s, m = 8, 5, 6
        secrets = AuthoritySecrets(1, 0, 0.0)
        kernel = PhasePOVM(D, 0.0)
        rng = np.random.default_rng(8)
        samples = 4000
        dists = {r: np.zeros(D) for r in range(D)}
        for _ in range(samples):
            ty = secrets.yes_angle(D) + kernel.sample(rng)
            tn = secrets.no_angle(D) + kernel.sample(rng)
            for r in range(D):
                dists[r] += conditional_pq(D, s, m, r, ty, tn, secrets)
        for r in dists:
            dists[r] /= samples
        # r >= 1 conditionals coincide with each other and the closed form
        for r in range(2, D):
            assert total_variation(dists[r], dists[1]) < 0.02
        assert total_variation(dists[1], analytic_pq(D, s, m)) < 0.02


class TestCheaterRuns:
    def test_s_zero_rejected(self):
        with pytest.raises(ValueError, match="honest"):
            CheaterPlan(s=0)

    @pytest.mark.parametrize("s", [2.5, True, np.float64(3.0), "3"])
    def test_shift_count_must_be_a_positive_integer(self, s):
        with pytest.raises(ValueError, match="shift count must be a positive integer"):
            CheaterPlan(s=s)
        assert CheaterPlan(s=np.int64(3)).s == 3

    @pytest.mark.parametrize("field", ["theta_yes_est", "theta_no_est"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_estimate_rejected(self, field, value):
        # before reaching the per-round angle operator's unitarity check
        with pytest.raises(ValueError, match="angle estimates must be finite"):
            CheaterPlan(s=3, **{field: value})

    def test_exact_estimates_shift_deterministically(self):
        # perfect angle knowledge turns the attack into a clean shift by -s
        D, N, s = 8, 4, 5
        rng = np.random.default_rng(2)
        for m in range(N):
            votes = [1] * m + [0] * (N - 1 - m)
            plan = CheaterPlan(
                s=s,
                theta_yes_est=SECRETS.yes_angle(D),
                theta_no_est=SECRETS.no_angle(D),
            )
            res, info = run_cheater_attack(D, N, SECRETS, votes, plan, rng)
            assert res.q == (m - s) % D

    def test_sampled_estimates_flag_over_repeats(self):
        from qvote.anticheat import run_repeated

        D, N, s = 8, 7, 5
        rng = np.random.default_rng(9)

        def attacked_round(r):
            res, _ = run_cheater_attack(D, N, SECRETS, [1, 1, 1, 0, 0, 0], CheaterPlan(s=s), r)
            return res

        agg = run_repeated(D, N, SECRETS, [0] * N, K=8, rng=rng, round_fn=attacked_round)
        assert agg.cheat_detected  # broad spread: eight equal outcomes are vanishingly unlikely

    def test_fixed_estimates_match_conditional_formula(self):
        # literal protocol runs with pinned angle estimates: the empirical q
        # distribution must match the r-average of the conditional formula
        D, N, s = 4, 3, 3
        secrets = AuthoritySecrets(1, 0, 0.29)
        ty, tn = 1.3, 0.6
        plan = CheaterPlan(s=s, theta_yes_est=ty, theta_no_est=tn)
        rng = np.random.default_rng(21)
        trials = 3000
        counts = np.zeros(D)
        for _ in range(trials):
            res, _ = run_cheater_attack(D, N, secrets, [1, 0], plan, rng)
            counts[res.q] += 1
        expected = np.mean(
            [conditional_pq(D, s, 1, r, ty, tn, secrets) for r in range(D)], axis=0
        )
        assert total_variation(counts, expected) < 0.05

    def test_outcome_histogram_independent_of_cheater_position(self):
        D, N, s = 4, 3, 3
        trials = 2500
        hists = {}
        for pos in (0, 2):
            rng = np.random.default_rng(33)
            counts = np.zeros(D, dtype=int)
            for _ in range(trials):
                secrets = AuthoritySecrets(1, 0, float(rng.uniform(0, 2 * np.pi / D)))
                res, _ = run_cheater_attack(
                    D, N, secrets, [1, 0], CheaterPlan(s=s), rng, cheater_position=pos
                )
                counts[res.q] += 1
            hists[pos] = counts
        assert total_variation(hists[0], hists[2]) < 0.05


def _reference_round(D, N, secrets, honest_votes, plan, rng, backend, cheater_position=None):
    """One cheater round played on a backend, step by step: the per-round
    reference for ``run_cheater_attack``'s batch."""
    cheater = N - 1 if cheater_position is None else cheater_position
    round_ = setup(D, N, secrets, rng, backend=backend)
    th_y = plan.theta_yes_est
    th_n = plan.theta_no_est
    if th_y is None:
        th_y = PhasePOVM(D, secrets.yes_angle(D)).sample(rng)
    if th_n is None:
        th_n = PhasePOVM(D, secrets.no_angle(D)).sample(rng)
    honest_iter = iter(honest_votes)
    r = -1
    for voter in range(N):
        if voter != cheater:
            vote_distributed(round_, voter, next(honest_iter), rng)
            continue
        r = _cast_vote_on(round_, round_.ballot_regs[voter], th_n, rng)
        round_.announced[voter] = r
        round_.state = round_.backend.apply_local(
            round_.state, round_.ballot_regs[voter], angle_phase_matrix(D, plan.s * (th_n - th_y))
        )
    authority_correct(round_)
    result = authority_readout(round_, rng)
    return result, {"r": r, "theta_yes_est": th_y, "theta_no_est": th_n, "m_honest": sum(honest_votes)}


@hst.composite
def _cheater_cases(draw):
    """(D, N, secrets, honest votes, plan, cheater position, backend): any levels
    and gap, fixed or sampled estimates, the dense backend where it fits."""
    D = draw(hst.integers(2, 8))
    N = draw(hst.integers(1, D - 1))
    gap = draw(hst.integers(1, (D - 1) // N))
    no = draw(hst.integers(0, D - 1 - gap))
    secrets = AuthoritySecrets(no + gap, no, draw(hst.floats(0.0, 2 * np.pi / D, exclude_max=True)))
    votes = draw(hst.lists(hst.integers(0, 1), min_size=N - 1, max_size=N - 1))
    angle = hst.none() | hst.floats(-10.0, 10.0)
    plan = CheaterPlan(draw(hst.integers(1, 2 * D)), draw(angle), draw(angle))
    backends = ["branch", "dense"] if D ** (2 * N) <= 4096 else ["branch"]
    return D, N, secrets, votes, plan, draw(hst.integers(0, N - 1)), draw(hst.sampled_from(backends))


def _records(results):
    return [(res.q, res.error_outcome, res.cheat_detected, info["r"], info["theta_yes_est"],
             info["theta_no_est"]) for res, info in results]


def _batch_records(out):
    return [(None if q < 0 else q, q < 0, flag, r, ty, tn) for q, flag, r, ty, tn in zip(
        *(out[k].tolist() for k in ("q", "cheat_flag", "r", "theta_yes_est", "theta_no_est")))]


class TestCheaterBatch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=_cheater_cases(), trials=hst.integers(0, 11), seed=hst.integers(0, 2**32 - 1))
    def test_batch_equals_the_per_round_loop(self, case, trials, seed):
        D, N, secrets, votes, plan, pos, backend = case
        ref_rng, rng, one_rng = (np.random.default_rng(seed) for _ in range(3))
        ref = [_reference_round(D, N, secrets, votes, plan, ref_rng, backend, pos)
               for _ in range(trials)]
        with mock.patch.object(attacks, "_DRAW_CHUNK", 4):  # chunk boundaries inside the run
            out = run_cheater_attack(D, N, secrets, votes, plan, rng, pos, trials=trials)
        assert _batch_records(out) == _records(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        probs = [res.probability for res, _ in ref]
        assert np.max(np.abs(out["probability"] - probs), initial=0.0) <= 1e-12
        if trials:  # one round on its own: today's (ReadoutResult, info)
            res, info = run_cheater_attack(D, N, secrets, votes, plan, one_rng, pos)
            ref_res, ref_info = ref[0]
            assert _records([(res, info)]) == _records(ref[:1])
            assert res.m_inferred == ref_res.m_inferred and info["m_honest"] == ref_info["m_honest"]
            assert res.probability == pytest.approx(ref_res.probability, abs=1e-12)

    def test_more_than_one_chunk_equals_the_per_round_loop(self):
        trials = attacks._DRAW_CHUNK + 3
        secrets = AuthoritySecrets(1, 0, 0.4)
        ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
        ref = [_reference_round(3, 2, secrets, [1], CheaterPlan(s=2), ref_rng, "branch")
               for _ in range(trials)]
        out = run_cheater_attack(3, 2, secrets, [1], CheaterPlan(s=2), rng, trials=trials)
        assert _batch_records(out) == _records(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=_cheater_cases(), seed=hst.integers(0, 2**32 - 1))
    def test_traveling_cheater_equals_the_distributed_one(self, case, seed):
        """The variants differ only in when the wrap corrections multiply, so
        under the same uniforms the traveling trials are the distributed ones,
        their probabilities at 1e-12."""
        D, N, secrets, votes, plan, pos, _ = case
        dist, trav = (run_cheater_attack(D, N, secrets, votes, plan, np.random.default_rng(seed), pos,
                                         trials=20, variant=variant) for variant in VARIANTS)
        for key in ("q", "r", "cheat_flag", "theta_yes_est", "theta_no_est"):
            assert np.array_equal(dist[key], trav[key])
        assert np.max(np.abs(dist["probability"] - trav["probability"])) <= 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'relay'"):
            run_cheater_attack(4, 3, SECRETS, [1, 0], CheaterPlan(s=3), np.random.default_rng(0),
                               trials=2, variant="relay")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_cheater_cases(), seed=hst.integers(0, 2**32 - 1))
    def test_every_trial_follows_the_conditional_formula(self, case, seed):
        D, N, secrets, votes, plan, pos, _ = case
        out = run_cheater_attack(D, N, secrets, votes, plan, np.random.default_rng(seed), pos,
                                 trials=20)
        for q, r, ty, tn, p in zip(*(out[k] for k in ("q", "r", "theta_yes_est", "theta_no_est",
                                                     "probability"))):
            pq = conditional_pq(D, plan.s, sum(votes), int(r), ty, tn, secrets)
            expected = pq[q] if q >= 0 else 1.0 - pq[::secrets.gap].sum()
            assert abs(p - expected) <= 1e-12

    @pytest.mark.parametrize("trials", [-1, True, 2.0, "3"])
    def test_bad_trial_count_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be a non-negative integer"):
            run_cheater_attack(4, 3, SECRETS, [1, 0], CheaterPlan(s=3),
                               np.random.default_rng(0), trials=trials)

    @pytest.mark.parametrize("position", [1.5, True, np.float64(1.0), 3, -1])
    def test_bad_cheater_position_rejected(self, position):
        # 1.5 and True used to run as position 1
        with pytest.raises(ValueError, match="cheater position must be an integer in"):
            run_cheater_attack(4, 3, SECRETS, [1, 0], CheaterPlan(s=3),
                               np.random.default_rng(0), cheater_position=position)
        assert run_cheater_attack(4, 3, SECRETS, [1, 0], CheaterPlan(s=3), np.random.default_rng(0),
                                  cheater_position=np.int64(1), trials=2)["q"].shape == (2,)

    def test_no_backend_round_per_trial(self):
        # the batch plays no round on a backend: none of its steps may run
        def refuse(*args, **kwargs):
            raise AssertionError("a backend round ran")

        with mock.patch.object(attacks, "setup", refuse), \
                mock.patch.object(attacks, "_cast_vote_on", refuse):
            out = run_cheater_attack(5, 4, SECRETS, [1, 0, 1], CheaterPlan(s=3),
                                     np.random.default_rng(1), trials=50)
        assert out["q"].shape == (50,)


class TestMitm:
    @pytest.mark.parametrize("backend", ["dense", "branch"])
    def test_leak_always_correct_and_tally_intact(self, backend):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=0)
        rng = np.random.default_rng(3)
        for votes in itertools.product((0, 1), repeat=3):
            for target in range(3):
                rep = run_mitm_traveling(cfg, votes, target, rng, backend=backend)
                assert rep.leak_accuracy == 1.0
                assert rep.detected_count == 0
                assert rep.outcome_histogram == {f"tally={sum(votes)}": 1}

    def test_no_repair_corrupts_tally_by_target_vote(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="traveling", seed=0)
        rng = np.random.default_rng(4)
        rep = run_mitm_traveling(cfg, [1, 1, 0], 0, rng, repair=False)
        assert rep.outcome_histogram == {"tally=1": 1}


class TestSwapAttack:
    def test_no_pair_check_leaks_perfectly(self):
        # D = N = 3 is fine for the attack analysis: the leak is exact even
        # where an all-yes tally would alias mod D
        cfg = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)
        rng = np.random.default_rng(5)
        for votes in itertools.product((0, 1), repeat=3):
            rep = run_swap_attack(cfg, votes, 0, None, rng, trials=4)
            assert rep.leak_accuracy == 1.0
            assert rep.detected_count == 0
            expected = f"reading={votes[0]},tally={sum(votes) % 3}"
            assert set(rep.outcome_histogram) == {expected}

    def test_pair_check_detection_probability(self):
        # D=2 allows one voter (D > N), too few for a pair check run by two voters
        for D in (3, 4):
            cfg = ProtocolConfig(D=D, N=2 if D == 3 else min(D - 1, 3), scheme="distributed", seed=0)
            rng = np.random.default_rng(6)
            votes = [1] * cfg.N
            rep = run_swap_attack(cfg, votes, 0, (0, 1), rng, trials=20_000)
            p = 1 - 1 / D
            sigma = np.sqrt(p * (1 - p) / rep.trials)
            assert abs(rep.detection_rate - p) <= 3 * sigma
            assert rep.statistics["pass_probability"] == pytest.approx(1 / D, abs=1e-12)

    def test_pass_branch_keeps_tally_but_reading_uniform(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=0)
        rng = np.random.default_rng(7)
        rep = run_swap_attack(cfg, [1, 0, 1], 0, (0, 1), rng, trials=30_000)
        tallies = {k.split("tally=")[1] for k in rep.outcome_histogram if "tally" in k}
        assert tallies == {"2"}
        # among passed runs the reading is uniform: accuracy near 1/D
        acc = rep.leak_accuracy
        n = rep.leak_attempts
        sigma = np.sqrt(0.25 * (1 - 0.25) / n)
        assert abs(acc - 0.25) <= 4 * sigma

    def test_pair_without_target_never_detects(self):
        cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=0)
        rng = np.random.default_rng(8)
        rep = run_swap_attack(cfg, [0, 1, 1], 2, (0, 1), rng, trials=500)
        assert rep.detected_count == 0
        assert rep.leak_accuracy == 1.0

    def test_swapped_in_state_matches_expected_form(self):
        # after swap-in, the joint state is (1/D) sum_{k,j} |j>_E |k>_t |j>^(rest)
        D, N = 3, 3
        bk = get_backend("dense")
        state = bk.ghz(D, N)
        state = bk.attach(state, D, phase_state(D, 0.0))
        state = bk.swap(state, N, 0)
        expect = np.zeros((D,) * (N + 1), dtype=complex)
        for j in range(D):
            for k in range(D):
                expect[k, j, j, j] = 1.0 / D  # regs (t, rest..., E=j)
        assert np.max(np.abs(state.tensor() - expect)) <= 1e-12

    def test_post_voting_swap_back_state_form(self):
        # after voting and swap-back the state factorizes: the ancilla carries
        # the target's vote as a phase gradient, the ballot the others' votes:
        # [(1/sqrt(D)) sum_k w^{m1 k}|k>_E] x [(1/sqrt(D)) sum_j w^{m_rest j}|j>^(x N)]
        D, N, target = 3, 3, 0
        votes = [1, 0, 1]
        m1 = votes[target]
        m_rest = sum(votes) - m1
        bk = get_backend("dense")
        state = bk.ghz(D, N)
        state = bk.attach(state, D, phase_state(D, 0.0))
        state = bk.swap(state, N, target)
        for voter, v in enumerate(votes):
            if v:
                state = bk.apply_local(state, voter, phase_vote_matrix(D))
        state = bk.swap(state, N, target)
        w = np.exp(2j * np.pi / D)
        ancilla = np.array([w ** (m1 * k) for k in range(D)]) / np.sqrt(D)
        ballot = np.zeros(D**N, dtype=complex)
        for j in range(D):
            ballot[int(np.ravel_multi_index((j,) * N, (D,) * N))] = w ** (m_rest * j) / np.sqrt(D)
        expect = np.kron(ballot, ancilla)  # register order (ballot..., E)
        assert_allclose(align_global_phase(state.amps), align_global_phase(expect), rtol=0, atol=1e-12)


def _per_trial_counts(trials, draw):
    """Reference for ``attacks._batched_counts``: one draw per trial, in order."""
    for _ in range(trials):
        yield draw(1)[0].item(), 1


class TestBatchedSampling:
    CHUNK = attacks._DRAW_CHUNK

    def test_batched_draws_are_the_single_draw_stream(self):
        probs = [0.1, 0.0, 0.55, 0.35]
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        batched = sample_index(probs, a, 1000)
        assert batched.tolist() == [sample_index(probs, b) for _ in range(1000)]
        assert a.random(7).tolist() == [b.random() for _ in range(7)]

    @pytest.mark.parametrize("trials", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("attack", ["swap", "swap-unrepaired", "swap-pair-off-target",
                                        "entangling", "classical"])
    def test_reports_equal_the_per_trial_loop(self, attack, trials):
        cfg = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)

        def run(rng):
            if attack.startswith("swap"):
                pair = (1, 2) if attack == "swap-pair-off-target" else (0, 1)
                return run_swap_attack(cfg, [1, 0, 1], 0, pair, rng, trials=trials,
                                       repair=attack != "swap-unrepaired")
            if attack == "classical":
                return run_classical_eavesdrop(4, [1, 0, 1, 1], 2, rng, trials=trials, seed=4)
            return run_entangling_attack(cfg, [1, 0, 1], 0, swap_pair_matrix(3), (0, 1), rng,
                                         trials=trials)

        batched_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
        batched = run(batched_rng)
        with mock.patch.object(attacks, "_batched_counts", _per_trial_counts):
            loop = run(loop_rng)
        assert batched == loop
        assert list(batched.outcome_histogram.items()) == list(loop.outcome_histogram.items())
        assert sum(batched.outcome_histogram.values()) == trials
        assert batched_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("backend", ["dense", "branch"])
    @pytest.mark.parametrize("repair", [True, False])
    @pytest.mark.parametrize("target", [0, 1])
    def test_mitm_tree_equals_the_per_trial_ballots(self, backend, repair, target):
        """The draw chunk is cut to 64 here: the per-trial reference runs a
        whole ballot per trial, and the chunk boundaries are the same code at
        any chunk size."""
        cfg = ProtocolConfig(D=3, N=2, scheme="traveling", seed=0)
        chunk = 64
        counts = [0, 1, chunk - 1, chunk, chunk + 1]
        loop = _mitm_per_trial(cfg, [1, 1], target, np.random.default_rng(8), backend, repair, counts)
        for trials in counts:
            with mock.patch.object(attacks, "_DRAW_CHUNK", chunk):
                tree = run_mitm_traveling(cfg, [1, 1], target, np.random.default_rng(8),
                                          backend=backend, repair=repair, trials=trials, seed=0)
            assert tree == loop[trials]
            assert list(tree.outcome_histogram.items()) == list(loop[trials].outcome_histogram.items())
        assert loop[chunk + 1].outcome_histogram == {f"tally={2 if repair else 1}": chunk + 1}


def _mitm_per_trial(config, votes, target, rng, backend, repair, counts):
    """The reference: the whole ballot run once per trial, each measurement
    sampled; the report after each number of trials in ``counts``."""
    bk = get_backend(backend)
    D = config.D
    shift = cached_op(shift_matrix, D, 1)
    kets = [np.eye(D, dtype=complex)[:, k] for k in range(D)]
    report = AttackReport(kind="mitm-traveling", trials=0, seed=0)
    report.statistics["expected_tally"] = sum(votes)
    out = {}
    for trial in range(max(counts) + 1):
        if trial in counts:
            out[trial] = dataclasses.replace(copy.deepcopy(report), trials=trial)
        if trial == max(counts):
            return out
        state = bk.attach(bk.ghz(D, 2), D, 0)
        for voter, v in enumerate(votes):
            reg = 2 if voter == target else 1
            if v:
                state = bk.apply_local(state, reg, shift)
            if voter == target:
                leak, state, _ = bk.measure_local_kets(state, 2, kets, rng)
                report.leak_attempts += 1
                if leak == votes[target]:
                    report.leak_correct += 1
                if repair and leak:
                    state = bk.apply_local(state, 1, cached_op(shift_matrix, D, int(leak)))
        tally, _, _ = bk.measure_targets(state, shift_family(D), rng, registers=[0, 1])
        report._bump(f"tally={int(tally)}")


class TestEntangling:
    def test_identity_never_detected(self):
        cfg = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)
        rng = np.random.default_rng(9)
        rep = run_entangling_attack(cfg, [1, 0, 0], 0, np.eye(9), (0, 1), rng, trials=200)
        assert rep.detected_count == 0
        assert rep.statistics["pass_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_reported_pass_probability_stays_a_probability(self):
        # the Born sum lands a few ulps above 1 here; the report must not show it
        cfg = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)
        for backend in ("dense", "branch"):
            rep = run_entangling_attack(
                cfg, [1, 0, 1], 0, np.eye(9), (0, 1), np.random.default_rng(5), backend=backend
            )
            assert rep.statistics["pass_probability"] <= 1.0
            swap = run_swap_attack(cfg, [1, 0, 1], 0, (1, 2), np.random.default_rng(5), backend=backend)
            assert swap.statistics["pass_probability"] <= 1.0

    def test_swap_entangler_nondetection_is_one_over_d(self):
        for D in (2, 3, 4, 8):
            U = swap_pair_matrix(D)
            assert analytic_nondetection(U, D) == pytest.approx(1 / D, abs=1e-12)

    def test_empirical_matches_analytic_nondetection(self):
        cfg = ProtocolConfig(D=3, N=2, scheme="distributed", seed=0)
        rng = np.random.default_rng(10)
        U = swap_pair_matrix(3)
        rep = run_entangling_attack(cfg, [1, 0], 0, U, (0, 1), rng, trials=20_000)
        nd = rep.statistics["analytic_nondetection"]
        assert rep.statistics["pass_probability"] == pytest.approx(nd, abs=1e-12)
        sigma = np.sqrt(nd * (1 - nd) / rep.trials)
        assert abs((1 - rep.detection_rate) - nd) <= 4 * sigma

    def test_product_attacks_undetected_and_rho_vote_independent(self):
        cfg = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            U = random_product_attack(3, rng)
            rep = run_entangling_attack(cfg, [1, 1, 0], 0, U, (0, 1), rng, trials=50)
            assert rep.detected_count == 0
            assert rep.statistics["pass_probability"] >= 1 - 1e-9
            rhos = [
                entangling_rho_e1(cfg, votes, 0, U)
                for votes in itertools.product((0, 1), repeat=3)
            ]
            for rho in rhos[1:]:
                assert trace_distance(rho, rhos[0]) <= 1e-12

    def test_rho_e1_has_expected_block_form(self):
        # product attack: rho on (ancilla, register) = (1/D) sum_j |eta_j><eta_j| x |j><j|
        D = 3
        rng = np.random.default_rng(12)
        U = random_product_attack(D, rng)
        cfg = ProtocolConfig(D=D, N=3, scheme="distributed", seed=0)
        rho = entangling_rho_e1(cfg, [1, 0, 1], 0, U, backend="dense")
        expect = np.zeros((D * D, D * D), dtype=complex)
        for j in range(D):
            eta = U[:, j].reshape(D, D)[:, j]
            block = np.outer(eta, eta.conj()) / D
            for a in range(D):
                for b in range(D):
                    expect[a * D + j, b * D + j] = block[a, b]
        assert np.max(np.abs(rho - expect)) <= 1e-12

    def test_non_unitary_rejected(self):
        cfg = ProtocolConfig(D=3, N=2, scheme="distributed", seed=0)
        with pytest.raises(ValueError):
            run_entangling_attack(
                cfg, [0, 0], 0, np.ones((9, 9)), (0, 1), np.random.default_rng(0)
            )


class TestPairCheck:
    """The check the swap and entangling attacks run: ``project_diag`` with ``pair_agree_mask``."""

    def test_clean_ballot_passes_and_is_unchanged(self):
        for bk in map(get_backend, ("branch", "dense")):
            state = bk.ghz(3, 3)
            p, post = bk.project_diag(state, [0, 1], pair_agree_mask(3))
            assert p == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(bk.amplitudes(post) - bk.amplitudes(state))) <= 1e-12

    def test_swapped_register_pass_probability(self):
        bk = get_backend("branch")
        D = 4
        state = bk.ghz(D, 3)
        state = bk.attach(state, D, phase_state(D, 0.0))
        state = bk.swap(state, 3, 0)
        p, _ = bk.project_diag(state, [0, 1], pair_agree_mask(D))
        assert p == pytest.approx(1 / D, abs=1e-12)

    def test_disagreeing_product_state_fails(self):
        bk = get_backend("dense")
        state = DenseState((2, 2), np.kron([1, 0], [0, 1]))  # |0 1>
        p, post = bk.project_diag(state, [0, 1], pair_agree_mask(2))
        assert p == 0.0 and post is None

    def test_same_register_rejected(self):
        with pytest.raises(ValueError, match="two distinct registers"):
            attacks._check_pair((1, 1), 2)


class TestClassicalEavesdrop:
    def test_leak_correct_and_never_detected(self):
        rng = np.random.default_rng(15)
        for votes in itertools.product((0, 1), repeat=4):
            rep = run_classical_eavesdrop(4, votes, 1, rng, trials=25)
            assert rep.leak_accuracy == 1.0
            assert rep.detected_count == 0
            assert rep.outcome_histogram == {f"tally={sum(votes)}": 25}

    @pytest.mark.parametrize("trials", [0, 1, 5000])
    def test_chunked_draws_match_the_per_trial_loop(self, trials):
        """The report equals that of one zero-sum draw per trial, including
        over more than one draw chunk."""
        N, votes, target = 4, [1, 0, 1, 1], 2
        rep = run_classical_eavesdrop(N, votes, target, np.random.default_rng(4), trials=trials, seed=4)
        want = attacks.AttackReport(kind="classical-eavesdrop", trials=trials,
                                    analytic_detection=0.0, seed=4)
        rng = np.random.default_rng(4)
        for _ in range(trials):
            labels = sample_zero_sum_ballots(N, 1, rng)[0]
            marked = [(int(x) + v) % (N + 1) for x, v in zip(labels, votes)]
            want.leak_attempts += 1
            want.leak_correct += (marked[target] - int(labels[target])) % (N + 1) == votes[target]
            want._bump(f"tally={sum(marked) % (N + 1)}")
        want.statistics["expected_tally"] = sum(votes)
        assert rep == want


_CFG = ProtocolConfig(D=3, N=3, scheme="distributed", seed=0)
_TRIAL_RUNS = {
    "swap": lambda rng, n: run_swap_attack(_CFG, [1, 0, 1], 0, (0, 1), rng, trials=n),
    "entangling": lambda rng, n: run_entangling_attack(_CFG, [1, 0, 1], 0, swap_pair_matrix(3),
                                                       (0, 1), rng, trials=n),
    "mitm": lambda rng, n: run_mitm_traveling(ProtocolConfig(D=3, N=2), [1, 1], 0, rng, trials=n),
    "classical": lambda rng, n: run_classical_eavesdrop(4, [1, 0, 1, 1], 2, rng, trials=n),
    "monte-carlo": lambda rng, n: monte_carlo_pq(5, 3, 1, n, rng),
}


@pytest.mark.parametrize("trials", [-5, -1, 2.5, True])
@pytest.mark.parametrize("run", sorted(_TRIAL_RUNS))
def test_trials_must_be_a_non_negative_integer(run, trials):
    with pytest.raises(ValueError, match="trials must be a non-negative integer"):
        _TRIAL_RUNS[run](np.random.default_rng(0), trials)


def test_histogram_counts_sum_to_trials():
    cfg = ProtocolConfig(D=4, N=3, scheme="distributed", seed=0)
    rng = np.random.default_rng(16)
    rep = run_swap_attack(cfg, [1, 0, 1], 0, (0, 1), rng, trials=777)
    assert sum(rep.outcome_histogram.values()) == 777


def test_conditional_oracle_validates_its_secrets():
    """The oracle runs the round's own setup, which rejects secrets no round accepts."""
    with pytest.raises(ValueError, match="requires yes_level > no_level"):
        cheater_conditional_distribution(5, 3, AuthoritySecrets(0, 1, 0.1), 1, 3, 1.1, 0.4, 2)
    with pytest.raises(ValueError, match="offset"):
        cheater_conditional_distribution(5, 3, AuthoritySecrets(1, 0, 2.0), 1, 3, 1.1, 0.4, 2)


_PARTY_RUNS = {
    "swap": lambda target, pair: run_swap_attack(_CFG, [1, 0, 1], target, pair, np.random.default_rng(0)),
    "entangling": lambda target, pair: run_entangling_attack(_CFG, [1, 0, 1], target, np.eye(9), pair,
                                                             np.random.default_rng(0)),
    "rho_e1": lambda target, pair: entangling_rho_e1(_CFG, [1, 0, 1], target, np.eye(9)),
    "mitm": lambda target, pair: run_mitm_traveling(ProtocolConfig(D=4, N=3), [1, 0, 1], target,
                                                    np.random.default_rng(0)),
    "classical": lambda target, pair: run_classical_eavesdrop(3, [1, 0, 1], target,
                                                              np.random.default_rng(0)),
}


@pytest.mark.parametrize("run, target, pair, words", [
    *[(run, True, (0, 1), "attack targets must be integers, got True") for run in sorted(_PARTY_RUNS)],
    *[(run, 1.5, (0, 1), "attack targets must be integers, got 1.5") for run in sorted(_PARTY_RUNS)],
    *[(run, 3, (0, 1), "target out of range [0, 3): 3") for run in sorted(_PARTY_RUNS)],
    *[(run, -1, (0, 1), "target out of range [0, 3): -1") for run in sorted(_PARTY_RUNS)],
    # the entangling pair check is run by two voters; register 3 is the attacker's ancilla
    ("entangling", 0, (0, 3), "pair check requires two distinct registers below 3, got (0, 3)"),
    ("entangling", 0, (1, 1), "pair check requires two distinct registers below 3, got (1, 1)"),
    ("entangling", 0, (0, 1, 2), "pair check requires two distinct registers below 3, got (0, 1, 2)"),
    ("entangling", 0, (0, True), "pair registers must be integers, got True"),
    # so is the swap attack's; register 3 is its ancilla too
    ("swap", 0, (2, 2), "pair check requires two distinct registers below 3, got (2, 2)"),
    ("swap", 0, (0, 3), "pair check requires two distinct registers below 3, got (0, 3)"),
    ("swap", 0, (0, 1.5), "pair registers must be integers, got 1.5"),
])
def test_attack_party_inputs_rejected_with_their_words(run, target, pair, words):
    """Each attack entry point checks its target and pair the same way: an
    integer voter in [0, N), and two distinct registers; a bool or a
    fractional index is not read as a voter."""
    with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
        _PARTY_RUNS[run](target, pair)


@pytest.mark.parametrize("call, words", [
    # a fractional or bool count is not truncated into another count
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1.5, 3, 1.1, 0.4, 1),
     "D, N, s, m and r must be integers, got 1.5"),
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1, 2.5, 1.1, 0.4, 1),
     "D, N, s, m and r must be integers, got 2.5"),
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1, 3, 1.1, 0.4, 1.5),
     "D, N, s, m and r must be integers, got 1.5"),
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1, 3, 1.1, 0.4, True),
     "D, N, s, m and r must be integers, got True"),
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1, 3, np.nan, 0.4, 1),
     "angle estimates must be finite, got nan"),
    (lambda: conditional_pq(4, 2.5, 1, 1, 1.1, 0.4, SECRETS), "D, s, m and r must be integers, got 2.5"),
    (lambda: conditional_pq(4.0, 3, 1, 1, 1.1, 0.4, SECRETS), "D, s, m and r must be integers, got 4.0"),
    (lambda: conditional_pq(4, 3, 1, 1, 1.1, np.nan, SECRETS), "angle estimates must be finite, got nan"),
    (lambda: monte_carlo_pq(8, 5.5, 6, 50, np.random.default_rng(0)), "D, s and m must be integers, got 5.5"),
    (lambda: monte_carlo_pq(8, 5, 6.5, 50, np.random.default_rng(0)), "D, s and m must be integers, got 6.5"),
    (lambda: analytic_pq(8, 5, True), "D, s and m must be integers, got True"),
    # an out-of-range count is not read as some other count
    (lambda: conditional_pq(4, 3, 1, -1, 1.1, 0.4, SECRETS), "r out of range"),
    (lambda: conditional_pq(4, 3, 1, 7, 1.1, 0.4, SECRETS), "r out of range"),
    (lambda: conditional_pq(4, 3, 9, 1, 1.1, 0.4, SECRETS), "m must be an honest yes-count in [0, N-1]"),
    (lambda: conditional_pq(4, 3, -1, 1, 1.1, 0.4, SECRETS), "m must be an honest yes-count in [0, N-1]"),
    (lambda: cheater_conditional_distribution(4, 3, SECRETS, 1, 3, 1.1, 0.4, -1), "r out of range"),
    (lambda: analytic_pq(8, 5, 1, 2.5), "readout indices must be integers, got 2.5"),
    (lambda: analytic_pq(8, 5, 1, True), "readout indices must be integers, got True"),
    (lambda: analytic_pq(8, 5, 1, 99), "q out of range"),
    (lambda: analytic_pq(8, 5, 1, -1), "q out of range"),
    (lambda: run_repeated(8, 3, SECRETS, [1, 0, 1], 2.5, np.random.default_rng(0)),
     "repetition counts must be integers, got 2.5"),
    (lambda: run_repeated(8, 3, SECRETS, [1, 0, 1], True, np.random.default_rng(0)),
     "repetition counts must be integers, got True"),
], ids=["ccd-m", "ccd-s", "ccd-r", "ccd-r-bool", "ccd-nan", "cpq-s", "cpq-D", "cpq-nan",
        "mc-s", "mc-m", "analytic-m-bool", "cpq-r-low", "cpq-r-high", "cpq-m-high", "cpq-m-low",
        "ccd-r-low", "analytic-q-frac", "analytic-q-bool", "analytic-q-high", "analytic-q-low",
        "repeated-K", "repeated-K-bool"])
def test_cheater_analysis_inputs_rejected_with_their_words(call, words):
    """The cheater's analysis functions and repeated rounds take integer counts
    and finite estimates, as :class:`CheaterPlan` and the round itself do."""
    with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
        call()


def test_mitm_requires_the_traveling_tally_room():
    with pytest.raises(ValueError, match=re.escape("scheme 'traveling' requires D > N (got D=3, N=3)")):
        run_mitm_traveling(ProtocolConfig(D=3, N=3, scheme="traveling"), [1, 0, 1], 0,
                           np.random.default_rng(0))


@pytest.mark.parametrize("run, scheme, ballot", [
    (lambda cfg: run_traveling(cfg, [1, 0, 1]), "distributed", "traveling"),
    (lambda cfg: run_mitm_traveling(cfg, [1, 0, 1], 0, np.random.default_rng(0)), "distributed", "traveling"),
    (lambda cfg: run_distributed(cfg, [1, 0, 1]), "traveling", "distributed"),
], ids=["run_traveling", "run_mitm_traveling", "run_distributed"])
def test_room_error_names_the_ballot_run(run, scheme, ballot):
    """The error names the ballot that was run, not the config's scheme (by default 'distributed')."""
    with pytest.raises(ValueError, match=re.escape(f"scheme '{ballot}' requires D > N (got D=3, N=3)")):
        run(ProtocolConfig(D=3, N=3, scheme=scheme))


def test_pair_check_registers_lie_in_the_state():
    cfg = ProtocolConfig(D=3, N=2, scheme="distributed")
    with pytest.raises(ValueError, match=re.escape("two distinct registers below 2, got (0, 2)")):
        run_swap_attack(cfg, [0, 1], 0, (0, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("two distinct registers below 2, got (0, 2)")):
        run_entangling_attack(cfg, [0, 1], 0, np.eye(9), (0, 2), np.random.default_rng(0))
