"""Branch-backend tests, all cross-checked against the dense oracle."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote import branches as branches_module
from qvote.backends import BranchBackend, DenseBackend
from qvote.branches import (
    BranchError,
    BranchState,
    VecFactor,
    _block_vector,
    _branch_norm_sq,
    _row_key,
    apply_branch_local,
    apply_controlled_shift,
    apply_pair_unitary,
    attach_register,
    branch_inner,
    branch_measure,
    branch_partial_trace,
    drop_register,
    fourier_family,
    ghz_branches,
    phase_family,
    phase_ghz,
    shift_family,
    shifted_ghz,
    swap_registers,
    to_dense,
)
from qvote.matrices import (
    dft_matrix,
    fourier_basis_kets,
    phase_state,
    phase_vote_matrix,
    shift_matrix,
    swap_pair_matrix,
)
from qvote.states import (
    DenseState,
    align_global_phase,
    apply_joint,
    apply_local,
    make_uniform_ghz,
    maximally_mixed,
    measure_projective,
    partial_trace,
    trace_distance,
)


def pair_agree_mask(D):
    """Diagonal projector onto matching labels of two D-dim registers."""
    P = np.zeros((D * D, D * D), dtype=complex)
    for j in range(D):
        P[j * D + j, j * D + j] = 1.0
    return P


class TestConstruction:
    def test_ghz_branches_labels(self):
        s = ghz_branches(2, 3)
        labels = sorted(fs for _, fs in s.branches)
        assert labels == [(0, 0, 0), (1, 1, 1)]
        assert all(abs(c - 1 / np.sqrt(2)) < 1e-12 for c, _ in s.branches)

    def test_to_dense_matches_oracle(self):
        assert np.allclose(to_dense(ghz_branches(3, 2)).amps, make_uniform_ghz(3, 2).amps)

    def test_degenerate_dim_rejected(self):
        with pytest.raises(ValueError):
            ghz_branches(1, 1)

    def test_norm_via_gram(self):
        s = ghz_branches(4, 2)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        # Non-orthogonal branches: (|0> + |+>)/norm on a single register.
        plus = VecFactor(np.array([1, 1]) / np.sqrt(2))
        raw = BranchState((2,), [(1.0, (0,)), (1.0, (plus,))], renormalize=False)
        expected = np.linalg.norm([1 + 1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert raw.norm() == pytest.approx(expected, abs=1e-12)

    def test_labels_stored_as_python_ints(self):
        s = BranchState((3, 2), [(0.6, (np.int64(2), True)), (0.8, (np.uint8(0), np.int32(0)))])
        assert [fs for _, fs in s.branches] == [(2, 1), (0, 0)]
        assert all(type(f) is int for _, fs in s.branches for f in fs)
        row = (1, 0)
        assert BranchState((3, 2), [(1.0, row)]).branches[0][1] is row

    @pytest.mark.parametrize("label, error, words", [
        (3, ValueError, "basis label 3 out of range for register 0"),
        (np.int64(-1), ValueError, "basis label -1 out of range for register 0"),
        (1.0, TypeError, "unknown factor type <class 'float'>"),
        (None, TypeError, "unknown factor type <class 'NoneType'>"),
    ])
    def test_bad_labels_rejected(self, label, error, words):
        with pytest.raises(error, match=re.escape(words)):
            BranchState((3, 2), [(1.0, (label, 0))])


class TestFamilyCache:
    @pytest.mark.parametrize("build", [
        lambda: phase_ghz(1, 2, 0.3),
        lambda: phase_ghz(3, 0, 0.3),
        lambda: shifted_ghz(1, (0, 0)),
        lambda: shifted_ghz(3, ()),
        lambda: ghz_branches(3, 0),
    ])
    def test_degenerate_families_rejected(self, build):
        with pytest.raises(ValueError, match="must be >= "):
            build()

    def test_second_call_returns_the_same_immutable_state(self):
        a = phase_ghz(5, 3, 0.25)
        assert phase_ghz(5, 3, 0.25) is a
        assert shifted_ghz(5, [0, 2]) is shifted_ghz(5, (0, np.int64(2)))
        with pytest.raises(AttributeError, match="immutable"):
            a.branches = ()

    def test_cached_state_equals_a_fresh_build_bitwise(self):
        D, N, theta = 7, 4, 2 * np.pi * 3 / 7
        fresh = branches_module._ghz.__wrapped__(D, (0,) * N, theta)
        cached = phase_ghz(D, N, theta)
        assert [c for c, _ in cached.branches] == [c for c, _ in fresh.branches]
        assert np.array([c for c, _ in cached.branches]).tobytes() == \
            np.array([c for c, _ in fresh.branches]).tobytes()

    def test_whole_d49_family_stays_cached_on_shared_rows(self):
        D, N = 49, 48
        family = [phase_ghz(D, N, 2 * np.pi * q / D) for q in range(D)]
        assert all(phase_ghz(D, N, 2 * np.pi * q / D) is s for q, s in enumerate(family))
        rows = {id(fs) for s in family for _, fs in s.branches}
        assert len(rows) == D


def _old_ghz_state(D, N, branches):
    """With the three builders below, the separate GHZ builders that the one
    cached builder replaced, kept as its references."""
    return BranchState._trusted((int(D),) * N, branches)._renormalized()


def _old_ghz_branches(D, N):
    c = 1.0 / np.sqrt(D)
    return _old_ghz_state(D, N, [(c, (j,) * N) for j in range(D)])


def _old_phase_ghz(D, N, theta):
    c = 1.0 / np.sqrt(D)
    return _old_ghz_state(D, N, [(c * np.exp(1j * j * theta), (j,) * N) for j in range(D)])


def _old_shifted_ghz(D, offsets):
    c = 1.0 / np.sqrt(D)
    return _old_ghz_state(D, len(offsets), [(c, tuple((j + o) % D for o in offsets)) for j in range(D)])


def _bits(state):
    """Everything a GHZ state holds, its coefficients as bytes (signed zeros included)."""
    return (state.dims, [fs for _, fs in state.branches],
            b"".join(np.complex128(c).tobytes() for c, _ in state.branches), state._unit)


class TestOneGhzBuilder:
    def test_builder_equals_the_three_old_builders_bitwise(self):
        for D in range(2, 10):
            for N in range(1, 6):
                assert _bits(ghz_branches(D, N)) == _bits(_old_ghz_branches(D, N))
                for q in range(D):
                    theta = 2 * np.pi * q / D
                    assert _bits(phase_ghz(D, N, theta)) == _bits(_old_phase_ghz(D, N, theta))
                rng = np.random.default_rng(10 * D + N)
                for offsets in [(0,) * N, tuple(int(o) for o in rng.integers(1, D, N)),
                                (0,) * (N - 1) + (D - 1,)]:
                    assert _bits(shifted_ghz(D, offsets)) == _bits(_old_shifted_ghz(D, offsets))
                assert all(type(f) is int for _, fs in ghz_branches(D, N).branches for f in fs)

    @pytest.mark.parametrize("D,N", [(2, 1), (3, 2), (5, 3), (9, 5)])
    def test_ballot_is_the_zero_phase_and_zero_shift_target(self, D, N):
        ballot = ghz_branches(D, N)
        assert ballot is phase_ghz(D, N, 0.0) is phase_ghz(D, N, 0)
        assert ballot is shifted_ghz(D, (0,) * N) is branches_module.phase_family(D, N)[0]
        assert ballot is BranchBackend().ghz(D, N)

    def test_cached_rows_outlive_64_other_sizes(self):
        """The row cache holds as many sizes as the state cache, so a cached ballot
        and a phase-GHZ state first built after 64 other sizes share their rows."""
        ballot = ghz_branches(11, 13)
        for N in range(200, 270):  # 70 sizes no other test builds
            ghz_branches(2, N)
        fresh = phase_ghz(11, 13, 0.5123)
        assert all(a is b for (_, a), (_, b) in zip(ballot.branches, fresh.branches))

    def test_anticheat_setup_holds_the_cached_ballot(self):
        from qvote import anticheat

        D, N = 5, 3
        assert anticheat.setup(D, N, None, np.random.default_rng(0), backend="branch").state \
            is ghz_branches(D, N)

    @pytest.mark.parametrize("build,words", [
        (lambda: ghz_branches(1, 1), "qudit dimension must be >= 2, got 1"),
        (lambda: ghz_branches(3, 0), "register count must be >= 1, got 0"),
        (lambda: shifted_ghz(3, ()), "register count must be >= 1, got 0"),
        (lambda: shifted_ghz(1, (0, 0)), "qudit dimension must be >= 2, got 1"),
    ])
    def test_rejections_keep_their_messages(self, build, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            build()


class TestLocalOps:
    def test_phase_op_scales_branch_coefficients(self):
        D, N = 5, 3
        s = apply_branch_local(ghz_branches(D, N), 1, phase_vote_matrix(D))
        for c, fs in s.branches:
            j = fs[0]
            assert c == pytest.approx(np.exp(2j * np.pi * j / D) / np.sqrt(D))

    def test_shift_moves_labels(self):
        D = 4
        s = apply_branch_local(ghz_branches(D, 2), 1, shift_matrix(D))
        for _, fs in s.branches:
            assert fs[1] == (fs[0] + 1) % D

    def test_identity_noop(self):
        s = ghz_branches(3, 2)
        s2 = apply_branch_local(s, 0, np.eye(3))
        assert_allclose(align_global_phase(to_dense(s2).amps), align_global_phase(to_dense(s).amps),
                        rtol=0, atol=1e-12)

    def test_non_monomial_promotes_to_vector(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        s = apply_branch_local(ghz_branches(2, 2), 0, H)
        assert any(isinstance(fs[0], VecFactor) for _, fs in s.branches)
        dense = apply_local(make_uniform_ghz(2, 2), 0, H)
        assert_allclose(align_global_phase(to_dense(s).amps), align_global_phase(dense.amps),
                        rtol=0, atol=1e-12)

    def test_matches_dense_oracle_on_phase_sequences(self):
        D, N = 3, 3
        b = ghz_branches(D, N)
        d = make_uniform_ghz(D, N)
        for reg in (0, 2, 1):
            b = apply_branch_local(b, reg, phase_vote_matrix(D))
            d = apply_local(d, reg, phase_vote_matrix(D))
            assert np.max(np.abs(to_dense(b).amps - d.amps)) <= 1e-12


class TestAttachSwapDrop:
    def test_attach_basis_ancilla(self):
        s = attach_register(ghz_branches(2, 2), 3, 0)
        assert s.dims == (2, 2, 3)
        assert all(fs[2] == 0 for _, fs in s.branches)

    def test_attach_phase_state_matches_oracle(self):
        D = 3
        theta = 1.2
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, theta))
        dense = to_dense(s)
        manual = np.kron(make_uniform_ghz(D, 2).amps, phase_state(D, theta))
        assert np.max(np.abs(dense.amps - manual)) <= 1e-12

    def test_attach_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            attach_register(ghz_branches(2, 2), 2, np.array([1.0, 1.0]))

    def test_swap_matches_oracle(self):
        D = 3
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, 0.7))
        swapped = swap_registers(s, 0, 2)
        dense = apply_joint(to_dense(s), [0, 2], swap_pair_matrix(D))
        assert np.max(np.abs(to_dense(swapped).amps - dense.amps)) <= 1e-12

    def test_drop_product_register(self):
        s = attach_register(ghz_branches(2, 2), 2, 1)
        dropped = drop_register(s, 2)
        assert dropped.dims == (2, 2)
        assert_allclose(align_global_phase(to_dense(dropped).amps), align_global_phase(make_uniform_ghz(2, 2).amps),
                        rtol=0, atol=1e-12)

    def test_drop_correlated_register_rejected(self):
        with pytest.raises(BranchError):
            drop_register(ghz_branches(2, 2), 0)


class TestControlledShift:
    def test_disentangles_voting_register(self):
        # control label j, target holds j - r: shifting by -(j - r) returns |0>.
        D, r = 4, 2
        s = shifted_ghz(D, (0, -r))
        shifts = [-(j - r) for j in range(D)]
        out = apply_controlled_shift(s, 0, 1, shifts)
        for _, fs in out.branches:
            assert fs[1] == 0

    def test_matches_dense_oracle(self):
        D = 3
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, 0.4))
        shifts = [(2 * j + 1) % D for j in range(D)]
        out = apply_controlled_shift(s, 0, 2, shifts)
        U = np.zeros((D * D, D * D), dtype=complex)
        for j in range(D):
            for v in range(D):
                U[j * D + (v + shifts[j]) % D, j * D + v] = 1.0
        dense = apply_joint(to_dense(s), [0, 2], U)
        assert np.max(np.abs(to_dense(out).amps - dense.amps)) <= 1e-12


class TestPartialTrace:
    def test_single_register_maximally_mixed(self):
        D, N = 4, 5
        s = ghz_branches(D, N)
        for reg in range(N):
            assert trace_distance(branch_partial_trace(s, [reg]), maximally_mixed(D)) <= 1e-12

    def test_keep_all_matches_projector(self):
        s = phase_ghz(3, 2, 0.9)
        rho = branch_partial_trace(s, [0, 1])
        amps = to_dense(s).amps
        assert np.max(np.abs(rho.matrix - np.outer(amps, amps.conj()))) <= 1e-12

    def test_matches_dense_oracle_with_ancilla(self):
        D = 3
        s = attach_register(ghz_branches(D, 3), D, phase_state(D, 0.3))
        s = apply_branch_local(s, 1, phase_vote_matrix(D))
        dense = to_dense(s)
        for keep in ([0], [2], [0, 3], [3, 1]):
            rb = branch_partial_trace(s, keep)
            rd = partial_trace(dense, keep)
            assert np.max(np.abs(rb.matrix - rd.matrix)) <= 1e-12


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPairUnitary:
    def test_entangling_map_matches_dense(self):
        D = 3
        rng = np.random.default_rng(11)
        s = attach_register(ghz_branches(D, 3), D, 0)  # ancilla |0> at register 3
        z = rng.normal(size=(D * D, D * D)) + 1j * rng.normal(size=(D * D, D * D))
        q, r = np.linalg.qr(z)
        U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        out = apply_pair_unitary(s, (3, 0), U)
        dense = apply_joint(to_dense(s), [3, 0], U)
        assert np.max(np.abs(to_dense(out).amps - dense.amps)) <= 1e-12

    def test_partial_trace_through_entangled_pair(self):
        D = 2
        rng = np.random.default_rng(5)
        s = attach_register(ghz_branches(D, 3), D, 0)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        out = apply_pair_unitary(s, (3, 0), U)
        dense = to_dense(out)
        for keep in ([3, 0], [0], [3], [1, 2]):
            rb = branch_partial_trace(out, keep)
            rd = partial_trace(dense, keep)
            assert np.max(np.abs(rb.matrix - rd.matrix)) <= 1e-12

    def test_two_entangled_pairs_match_dense(self):
        D = 2
        s = attach_register(attach_register(ghz_branches(D, 2), D, 0), D, 0)
        # CNOT (control = first pair slot) after a Hadamard on it entangles
        # each branch's product input.
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        U = cnot @ np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
        ent = apply_pair_unitary(s, (2, 0), U)
        assert len(ent.branches) == 2 * len(s.branches)  # Schmidt rank 2 per branch
        ent2 = apply_pair_unitary(ent, (3, 0), U)
        dense = apply_joint(apply_joint(to_dense(s), [2, 0], U), [3, 0], U)
        assert np.max(np.abs(to_dense(ent2).amps - dense.amps)) <= 1e-12

    def test_repeated_pair_unitaries_merge_branches(self):
        # Branches that agree off the pair are split together, so the count
        # stays at the pair's Schmidt rank per GHZ label (3 x 3), not 3 ** k.
        D = 3
        rng = np.random.default_rng(23)
        s = attach_register(ghz_branches(D, 3), D, 0)
        d = to_dense(s)
        for _ in range(3):
            U = haar_unitary(D * D, rng)
            s, d = apply_pair_unitary(s, (3, 0), U), apply_joint(d, [3, 0], U)
            assert len(s.branches) <= 9
            assert np.max(np.abs(to_dense(s).amps - d.amps)) <= 1e-12

    def test_pair_check_on_entangled_pair_matches_dense(self):
        D = 3
        s = attach_register(ghz_branches(D, 3), D, 0)
        s = apply_pair_unitary(s, (3, 0), haar_unitary(D * D, np.random.default_rng(17)))
        d = to_dense(s)
        agree = np.eye(D)
        masks = [agree, 1 - agree]
        for seed in range(8):
            kb, post_b, pb = BranchBackend().measure_diag(s, [3, 0], masks, np.random.default_rng(seed))
            kd, post_d, pd = DenseBackend().measure_diag(d, [3, 0], masks, np.random.default_rng(seed))
            assert kb == kd
            assert abs(pb - pd) <= 1e-12
            assert np.max(np.abs(to_dense(post_b).amps - post_d.amps)) <= 1e-12


class TestMeasurement:
    def test_pair_agreement_passes_clean_ballot(self):
        D = 3
        rng = np.random.default_rng(2)
        s = ghz_branches(D, 3)
        mask = pair_agree_mask(D)
        comp = np.eye(D * D) - mask
        k, post, p = branch_measure(s, [mask, comp], rng, registers=[0, 1])
        assert k == 0 and p == pytest.approx(1.0, abs=1e-12)
        assert_allclose(align_global_phase(to_dense(post).amps), align_global_phase(to_dense(s).amps),
                        rtol=0, atol=1e-12)

    def test_fourier_frame_measurement_zero_sum(self):
        # Measuring every register in the Fourier-conjugate basis must produce
        # outcomes summing to 0 mod D on the plain correlated state.
        D, N = 3, 3
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = ghz_branches(D, N)
            total = 0
            for reg in range(N):
                kets = fourier_basis_kets(D)
                k, s, _ = branch_measure(s, kets, rng, registers=[reg])
                total += k
            assert total % D == 0

    def test_empty_projector_list_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            branch_measure(ghz_branches(2, 2), [], rng)

    def test_rank1_branch_targets(self):
        D, N = 4, 2
        rng = np.random.default_rng(4)
        m = 3
        s = apply_branch_local(ghz_branches(D, N), 0, phase_vote_matrix(D, m))
        targets = [phase_ghz(D, N, 2 * np.pi * q / D) for q in range(D)]
        k, post, p = branch_measure(s, targets, rng)
        assert k == m and p == pytest.approx(1.0, abs=1e-12)
        assert_allclose(align_global_phase(to_dense(post).amps), align_global_phase(to_dense(s).amps),
                        rtol=0, atol=1e-12)

    def test_subset_branch_target_collapse(self):
        # Measure the first two registers of a 3-register correlated state
        # against correlated 2-register targets, and compare with the oracle.
        D = 2
        rng = np.random.default_rng(9)
        s = ghz_branches(D, 3)
        plus = phase_ghz(D, 2, 0.0)
        minus = phase_ghz(D, 2, np.pi)
        k, post, p = branch_measure(s, [plus, minus], rng, registers=[0, 1])
        assert p == pytest.approx(0.5, abs=1e-12)
        dense_post = to_dense(post)
        target = plus if k == 0 else minus
        expect = np.kron(
            to_dense(target).amps,
            np.array([1, 1 if k == 0 else -1]) / np.sqrt(2),
        )
        assert_allclose(align_global_phase(dense_post.amps), align_global_phase(expect), rtol=0, atol=1e-12)

    def test_probabilities_match_dense_oracle(self):
        D = 3
        rng = np.random.default_rng(10)
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, 1.1))
        # R-type measurement: diagonal masks over (ballot register 0, ancilla 2).
        masks = []
        for r in range(D):
            m = np.zeros((D, D))
            for j in range(D):
                m[(j + r) % D, j] = 1.0
            masks.append(np.diag(m.reshape(-1)))
        probs = []
        st = s
        k, post, p = branch_measure(st, masks, rng, registers=[0, 2])
        assert p == pytest.approx(1.0 / D, abs=1e-12)
        dense_post = to_dense(post)
        assert abs(np.linalg.norm(dense_post.amps) - 1.0) <= 1e-10

    def test_diag_remainder(self):
        D = 2
        rng = np.random.default_rng(3)
        s = ghz_branches(D, 2)
        mask = np.diag([1.0, 0, 0, 0])
        seen = set()
        for _ in range(30):
            k, post, p = branch_measure(s, [mask], rng, registers=[0, 1])
            seen.add(k)
            assert p == pytest.approx(0.5, abs=1e-12)
        assert seen == {0, 1}

    def test_target_remainder_merges_equal_rows(self):
        # Two targets leave a remainder of 4 state branches and 2 x 16 projected
        # ones over 16 distinct factor rows; equal rows are summed.
        s = ghz_branches(4, 3)
        targets = [phase_ghz(4, 2, 0.0), phase_ghz(4, 2, np.pi / 2)]
        k, post, p = branch_measure(s, targets, np.random.default_rng(0), registers=[0, 1])
        dk = DenseBackend()
        kd, dpost, pd = dk.measure_targets(dk.ghz(4, 3), targets, np.random.default_rng(0), registers=[0, 1])
        assert k == kd == 2 and abs(p - pd) <= 1e-12
        assert len(post.branches) <= 16
        assert np.max(np.abs(to_dense(post).amps - dpost.amps)) <= 1e-12


class TestChecksStillFire:
    """The orthogonality and mask checks reject bad families however they are
    computed."""

    def test_nearby_phase_targets_rejected(self):
        D, N = 5, 3
        s = ghz_branches(D, N)
        targets = [phase_ghz(D, N, 0.4), phase_ghz(D, N, 0.4 + 1e-3)]
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            branch_measure(s, targets, np.random.default_rng(0))

    def test_duplicated_target_rejected(self):
        D, N = 4, 2
        targets = [phase_ghz(D, N, 2 * np.pi * q / D) for q in range(D)]
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            branch_measure(ghz_branches(D, N), targets + targets[1:2], np.random.default_rng(0))

    def test_non_orthogonal_ket_family_rejected(self):
        kets = [np.array([1, 0, 0], dtype=complex), np.array([1, 1, 0], dtype=complex) / np.sqrt(2)]
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            branch_measure(ghz_branches(3, 2), kets, np.random.default_rng(0), registers=[1])
        # The same family as two-register VecFactor targets, which share no key register.
        targets = [
            BranchState((3, 3), [(1.0, (VecFactor(k), VecFactor(k)))], renormalize=False) for k in kets
        ]
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            branch_measure(ghz_branches(3, 2), targets, np.random.default_rng(0))

    def test_masks_checked_as_masks(self):
        D = 3
        bk = BranchBackend()
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, 0.7))
        agree = np.eye(D)
        with pytest.raises(ValueError, match="overlap"):
            bk.measure_diag(s, [0, 2], [agree, agree], np.random.default_rng(0))
        half = np.ones((D, D)) - agree
        half[0, 1] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            bk.measure_diag(s, [0, 2], [agree, half], np.random.default_rng(0))
        with pytest.raises(ValueError, match="0 or 1"):
            branch_measure(s, [np.diag(half.reshape(-1))], np.random.default_rng(0), registers=[0, 2])
        with pytest.raises(ValueError, match="does not match"):
            bk.measure_diag(s, [0, 2], [np.ones(D)], np.random.default_rng(0))

    def test_masks_and_matrices_agree(self):
        D = 3
        s = attach_register(ghz_branches(D, 2), D, phase_state(D, 1.1))
        masks = [np.roll(np.eye(D), r, axis=0) for r in range(D)]
        mats = [np.diag(m.reshape(-1)) for m in masks]
        for seed in range(5):
            a = BranchBackend().measure_diag(s, [0, 2], masks, np.random.default_rng(seed))
            b = branch_measure(s, mats, np.random.default_rng(seed), registers=[0, 2])
            assert a[0] == b[0] and a[2] == b[2]
            assert np.array_equal(to_dense(a[1]).amps, to_dense(b[1]).amps)


@hst.composite
def _branch_pairs(draw):
    """Two random branch states on one layout: D <= 4, up to 5 registers, basis
    and vector factors, repeated label rows, and (when ``keyless``) no
    register that is basis on every branch."""
    D = draw(hst.integers(2, 4))
    R = draw(hst.integers(1, 5))
    keyless = draw(hst.booleans())
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    dims = (D,) * R
    # Per register: basis on every branch, vector on every branch, or mixed.
    modes = rng.choice(["basis", "vec", "mixed"], size=R)

    def vec():
        v = rng.normal(size=D) + 1j * rng.normal(size=D)
        return VecFactor(v / np.linalg.norm(v) * rng.uniform(0.3, 1.0))

    def state():
        branches = []
        for _ in range(int(rng.integers(1, 5))):
            fs = []
            for r in range(R):
                basis = modes[r] == "basis" or (modes[r] == "mixed" and rng.random() < 0.5)
                fs.append(int(rng.integers(0, D)) if basis else vec())
            c = complex(rng.normal(), rng.normal())
            branches.append((c, fs))
            if rng.random() < 0.4:  # the same label row again, new vector factors
                branches.append((complex(rng.normal(), rng.normal()),
                                 [vec() if isinstance(f, VecFactor) else f for f in fs]))
        if keyless:
            for r in range(R):
                branches[0][1][r] = vec()
        raw = [(c, tuple(fs)) for c, fs in branches]
        n = np.linalg.norm(sum(_block_vector(fs, range(R), dims, c) for c, fs in raw))
        return BranchState(dims, [(c / n, fs) for c, fs in raw], renormalize=False)

    return state(), state()


@settings(max_examples=200, deadline=None)
@given(_branch_pairs())
def test_label_join_matches_dense(pair):
    a, b = pair
    da, db = to_dense(a).amps, to_dense(b).amps
    both = list(a.branches) + [(-c, fs) for c, fs in b.branches]
    # Small inputs skip the join (empty key); force it on as well.
    for min_pairs in (0, branches_module._JOIN_MIN_PAIRS):
        with mock.patch.object(branches_module, "_JOIN_MIN_PAIRS", min_pairs):
            assert abs(branch_inner(a, b) - np.vdot(da, db)) <= 1e-12
            assert abs(branch_inner(b, a) - np.vdot(db, da)) <= 1e-12
            assert abs(_branch_norm_sq(a.dims, both) - np.linalg.norm(da - db) ** 2) <= 1e-12
            assert abs(_branch_norm_sq(a.dims, list(a.branches)) - 1.0) <= 1e-12


class TestTensorAndInner:
    def test_tensor_product_branch_count(self):
        a = ghz_branches(2, 3)
        ab = BranchState(a.dims * 2, [(ca * cb, fa + fb) for ca, fa in a.branches for cb, fb in a.branches])
        assert len(ab.branches) == 4
        manual = np.kron(to_dense(a).amps, to_dense(a).amps)
        assert np.max(np.abs(to_dense(ab).amps - manual)) <= 1e-12
        v = np.array([1, 1j]) / np.sqrt(2)
        av = attach_register(a, 2, v)  # a product with one more register keeps the branch count
        assert len(av.branches) == 2
        assert np.max(np.abs(to_dense(av).amps - np.kron(to_dense(a).amps, v))) <= 1e-12

    def test_branch_inner_matches_dense(self):
        a = phase_ghz(3, 2, 0.5)
        b = phase_ghz(3, 2, 1.7)
        dense = np.vdot(to_dense(a).amps, to_dense(b).amps)
        assert branch_inner(a, b) == pytest.approx(dense, abs=1e-12)


def test_oracle_equivalence_protocol_sequences():
    """Mixed op sequences expand to exactly the dense result (phase aligned)."""
    rng = np.random.default_rng(21)
    for D, N in [(2, 3), (3, 2), (4, 3)]:
        b = ghz_branches(D, N)
        d = make_uniform_ghz(D, N)
        b = attach_register(b, D, phase_state(D, 0.8))
        d_amps = np.kron(d.amps, phase_state(D, 0.8))
        from qvote.states import DenseState

        d = DenseState((D,) * (N + 1), d_amps)
        for reg in range(N):
            if rng.random() < 0.5:
                b = apply_branch_local(b, reg, phase_vote_matrix(D))
                d = apply_local(d, reg, phase_vote_matrix(D))
            else:
                b = apply_branch_local(b, reg, shift_matrix(D))
                d = apply_local(d, reg, shift_matrix(D))
        shifts = [j % D for j in range(D)]
        b = apply_controlled_shift(b, 0, N, shifts)
        U = np.zeros((D * D, D * D), dtype=complex)
        for j in range(D):
            for v in range(D):
                U[j * D + (v + shifts[j]) % D, j * D + v] = 1.0
        d = apply_joint(d, [0, N], U)
        assert len(b.branches) <= D
        assert np.max(np.abs(to_dense(b).amps - d.amps)) <= 1e-12


_REGISTER_OPS = {
    "drop": lambda bk, s, r: bk.drop(s, r),
    "swap": lambda bk, s, r: bk.swap(s, r, 0),
    "swap-second": lambda bk, s, r: bk.swap(s, 0, r),
    "controlled-shift": lambda bk, s, r: bk.controlled_shift(s, r, 1, [0, 1, 2]),
    "controlled-shift-target": lambda bk, s, r: bk.controlled_shift(s, 0, r, [0, 1, 2]),
    "pair": lambda bk, s, r: bk.apply_pair(s, (r, 0), np.eye(9)),
    "project-diag": lambda bk, s, r: bk.project_diag(s, [r], np.ones(3)),
    "project-ket": lambda bk, s, r: bk.project_ket(s, r, np.eye(3)[0]),
}


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
@pytest.mark.parametrize("op", sorted(_REGISTER_OPS))
@pytest.mark.parametrize("register", [-1, 3])
def test_register_index_validated(backend, op, register):
    # Register 2 is a product ancilla, so a drop of it would succeed.
    s = backend.attach(backend.ghz(3, 2), 3, 0)
    with pytest.raises(ValueError, match="out of range"):
        _REGISTER_OPS[op](backend, s, register)


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
@pytest.mark.parametrize("initial", [-1, 3])
def test_attach_label_validated(backend, initial):
    with pytest.raises(ValueError, match="initial label .* out of range"):
        backend.attach(backend.ghz(3, 2), 3, initial)


def _bad_families(backend, s):
    """Families both backends reject, as (call, message fragment) on a state
    of three dim-3 registers."""
    rng = np.random.default_rng(0)
    measure = measure_projective if backend.name == "dense" else branch_measure
    plus = np.ones(3) / np.sqrt(3)
    agree = np.eye(3)
    half = np.ones((3, 3)) - agree
    half[0, 1] = 0.5
    e0, e1 = np.eye(3)[:2]
    return {
        "non-diagonal matrix": (lambda: measure(s, [np.outer(plus, plus)], rng, registers=[1]),
                                "must be diagonal in the computational basis"),
        "matrix and ket": (lambda: backend.measure_local_kets(s, 1, [np.diag(e0), e1], rng),
                           "do not mix diagonal and rank-1 projectors"),
        "overlap": (lambda: backend.measure_diag(s, [0, 2], [agree, agree], rng),
                    "diagonal projectors overlap"),
        "half entry": (lambda: backend.measure_diag(s, [0, 2], [agree, half], rng),
                       "entries must be 0 or 1"),
        "mask size": (lambda: backend.measure_diag(s, [0, 2], [np.ones(3)], rng),
                      "mask size 3 does not match subspace 9"),
        "mask shape": (lambda: backend.measure_diag(s, [0, 2], [np.ones((1, 9))], rng),
                       "does not match the registers' shape"),
        "non-orthogonal kets": (lambda: backend.measure_local_kets(s, 1, [e0, (e0 + e1) / np.sqrt(2)], rng),
                                "not mutually orthogonal"),
        "empty": (lambda: backend.measure_diag(s, [0, 2], [], rng), "must not be empty"),
    }


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
def test_projections_share_the_measurement_checks(backend):
    """Projections and measurements on both backends reject the same families
    with the same words."""
    s = backend.ghz(3, 2)
    with pytest.raises(ValueError, match="0 or 1"):
        backend.project_diag(s, [0], np.array([1, 0.5, 0]))
    with pytest.raises(ValueError, match="must be normalized"):
        backend.project_ket(s, 1, np.array([1, 1, 0]))
    s = backend.attach(s, 3, phase_state(3, 0.7))
    for call, fragment in _bad_families(backend, s).values():
        with pytest.raises(ValueError, match=fragment):
            call()


_SEQUENCE_OPS = ("monomial", "local", "block", "shift", "swap", "attach", "drop", "pair",
                 "measure", "target", "project", "reduced")
_MAX_REGISTERS = 5
_MAX_BRANCHES = 40  # pair unitaries multiply the branch count by up to D


def _block_unitary(n, rng):
    """A Hadamard on two random labels and the identity elsewhere: not
    monomial, yet it maps the other labels, and twice applied every label,
    to one-hot columns."""
    a, b = rng.permutation(n)[:2]
    U = np.eye(n, dtype=complex)
    U[np.ix_([a, b], [a, b])] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return U


def _monomial_unitary(n, rng):
    return np.eye(n)[rng.permutation(n)] @ np.diag(np.exp(2j * np.pi * rng.random(n)))


def _assert_as_constructed(state):
    """Operations build states without the public constructor's checks; it
    must find nothing to change: no label to convert, no factor to tidy and
    no branch to drop."""
    assert all(type(f) is int for _, fs in state.branches for f in fs if not isinstance(f, VecFactor))
    again = BranchState(state.dims, state.branches, renormalize=False)
    assert len(again.branches) == len(state.branches)
    for (c, fs), (c2, fs2) in zip(state.branches, again.branches):
        assert np.array(c).tobytes() == np.array(c2).tobytes()
        assert _row_key(fs, range(len(fs))) == _row_key(fs2, range(len(fs2)))


def _target_family(D, m, rng):
    """An orthonormal family of BranchState targets on m registers, possibly
    incomplete: phase-GHZ (any m) or shifted-GHZ (m = 2) members."""
    if m == 2 and rng.random() < 0.5:
        family = [shifted_ghz(D, [0, s]) for s in range(D)]
    else:
        theta = 2 * np.pi * rng.random()
        family = [phase_ghz(D, m, theta + 2 * np.pi * q / D) for q in range(D)]
    keep = rng.permutation(D)[: int(rng.integers(1, D + 1))]
    return [family[q] for q in keep]


@settings(max_examples=300, deadline=None)
@given(
    D=hst.integers(2, 4),
    N=hst.integers(1, 3),
    ops=hst.lists(hst.sampled_from(_SEQUENCE_OPS), max_size=10),
    seed=hst.integers(0, 2**32 - 1),
)
def test_operation_sequences_match_dense(D, N, ops, seed):
    """Random protocol-legal operation sequences give the same amplitudes,
    reduced states and measurement outcomes on both backends."""
    rng = np.random.default_rng(seed)
    dense_rng, branch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    dk, bk = DenseBackend(), BranchBackend()
    d, b = dk.ghz(D, N), bk.ghz(D, N)
    for op in ops:
        R = len(b.dims)
        regs = [int(r) for r in rng.permutation(R)]
        # One or two registers in random order; all of them, unsorted, is possible when R <= 2.
        measured = regs[: int(rng.integers(1, min(R, 2) + 1))]
        if op in ("monomial", "local", "block"):
            make = {"monomial": _monomial_unitary, "local": haar_unitary, "block": _block_unitary}
            U = make[op](D, rng)
            d, b = dk.apply_local(d, regs[0], U), bk.apply_local(b, regs[0], U)
        elif op == "shift":
            # The control must hold a label on every branch.
            controls = [r for r in regs if all(type(fs[r]) is int for _, fs in b.branches)]
            if R < 2 or not controls:
                continue
            c = controls[0]
            t = next(r for r in regs if r != c)
            shifts = rng.integers(0, D, size=D)
            d, b = dk.controlled_shift(d, c, t, shifts), bk.controlled_shift(b, c, t, shifts)
        elif op == "swap":
            if R < 2:
                continue
            d, b = dk.swap(d, regs[0], regs[1]), bk.swap(b, regs[0], regs[1])
        elif op == "attach":
            if R == _MAX_REGISTERS:
                continue
            if rng.random() < 0.5:
                initial = int(rng.integers(0, D))
            else:
                initial = haar_unitary(D, rng)[:, 0]
            d, b = dk.attach(d, D, initial), bk.attach(b, D, initial)
        elif op == "drop":
            # Only a register whose factor is the same on every branch drops.
            if R < 2:
                continue
            try:
                b2 = bk.drop(b, regs[0])
            except BranchError:
                continue
            d, b = dk.drop(d, regs[0]), b2
        elif op == "pair":
            if R < 2 or len(b.branches) * D > _MAX_BRANCHES:
                continue
            # A monomial pair unitary gives one-hot Schmidt vectors on labels.
            U = (haar_unitary if rng.random() < 0.5 else _monomial_unitary)(D * D, rng)
            d, b = dk.apply_pair(d, regs[:2], U), bk.apply_pair(b, regs[:2], U)
        elif op == "measure":
            size = D ** len(measured)
            parts = rng.integers(0, 3, size=size)  # part 2 is left to the remainder
            masks = [(parts == k).astype(float) for k in range(2) if (parts == k).any()]
            if not masks:
                continue
            kd, d, pd = dk.measure_diag(d, measured, masks, dense_rng)
            kb, b, pb = bk.measure_diag(b, measured, masks, branch_rng)
            assert kd == kb
            assert abs(pd - pb) <= 1e-12
        elif op == "target":
            if len(measured) == 1 and rng.random() < 0.5:
                kets = haar_unitary(D, rng)[:, : int(rng.integers(1, D + 1))].T
                kd, d, pd = dk.measure_local_kets(d, measured[0], kets, dense_rng)
                kb, b, pb = bk.measure_local_kets(b, measured[0], kets, branch_rng)
            else:
                targets = _target_family(D, len(measured), rng)
                kd, d, pd = dk.measure_targets(d, targets, dense_rng, registers=measured)
                kb, b, pb = bk.measure_targets(b, targets, branch_rng, registers=measured)
            assert kd == kb
            assert abs(pd - pb) <= 1e-12
        elif op == "project":
            if rng.random() < 0.5:
                mask = rng.integers(0, 2, size=D ** len(measured)).astype(float)
                pd, d2 = dk.project_diag(d, measured, mask)
                pb, b2 = bk.project_diag(b, measured, mask)
            else:
                ket = haar_unitary(D, rng)[:, 0]
                pd, d2 = dk.project_ket(d, regs[0], ket)
                pb, b2 = bk.project_ket(b, regs[0], ket)
            assert abs(pd - pb) <= 1e-12
            if pd > 1e-9:
                d, b = d2, b2
        else:
            assert np.max(np.abs(dk.reduced(d, measured) - bk.reduced(b, measured))) <= 1e-12
        # The dense drop fixes the global phase afresh, so compare up to it.
        assert_allclose(align_global_phase(dk.amplitudes(d)), align_global_phase(bk.amplitudes(b)),
                        rtol=0, atol=1e-12)
        _assert_as_constructed(b)


def _old_dense_measure(state, targets, rng, registers):
    """The dense measurement of BranchState targets before contraction: every
    target expanded and measured as a ket."""
    return measure_projective(state, [to_dense(t).amps for t in targets], rng, registers=registers)


@hst.composite
def _dense_target_cases(draw):
    """A random dense state, registers to measure (all or a subset, in any
    order) and an orthonormal, possibly incomplete, family of BranchState
    targets on them: phase-GHZ or shifted-GHZ members, some with vector
    factors from a shared local unitary."""
    D = draw(hst.integers(2, 4))
    n = draw(hst.integers(1, 4 if D < 4 else 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    amps = rng.normal(size=D**n) + 1j * rng.normal(size=D**n)
    if rng.random() < 0.3:  # a sparse state, where whole target branches miss it
        amps = make_uniform_ghz(D, n).amps
    measured = [int(r) for r in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    m = len(measured)
    if m >= 2 and rng.random() < 0.5:
        offsets = [0, 0] + [int(o) for o in rng.integers(0, D, size=m - 2)]
        family = [shifted_ghz(D, [0, s] + offsets[2:]) for s in range(D)]
    else:
        theta = 2 * np.pi * rng.random()
        family = [phase_ghz(D, m, theta + 2 * np.pi * q / D) for q in range(D)]
    for r in rng.permutation(m)[: int(rng.integers(0, m + 1))]:
        U = haar_unitary(D, rng)
        family = [apply_branch_local(t, int(r), U) for t in family]
    keep = rng.permutation(D)[: int(rng.integers(1, D + 1))]
    state = DenseState((D,) * n, amps / np.linalg.norm(amps))
    return state, measured, [family[q] for q in keep], int(rng.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_dense_target_cases())
def test_dense_target_contraction_matches_expansion(case):
    """Scoring targets by contraction draws the outcome the expanded kets
    drew, and reports the same probability and post-state to the bit."""
    state, measured, targets, seed = case
    k, post, p = DenseBackend().measure_targets(state, targets, np.random.default_rng(seed), measured)
    k0, post0, p0 = _old_dense_measure(state, targets, np.random.default_rng(seed), measured)
    assert k == k0
    assert np.array(p).tobytes() == np.array(p0).tobytes()
    assert post.amps.tobytes() == post0.amps.tobytes()


@settings(max_examples=200, deadline=None)
@given(_branch_pairs())
def test_to_dense_scatter_matches_full_expansion(pair):
    """Scattering each branch into its label slice gives, to the bit, the
    sum of every branch expanded over all registers."""
    for s in pair:
        out = np.zeros(s.dims, dtype=complex)
        for coeff, factors in s.branches:
            out += _block_vector(factors, range(len(s.dims)), s.dims, coeff)
        assert to_dense(s).amps.tobytes() == DenseState(s.dims, out.reshape(-1)).amps.tobytes()


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
def test_unnormalized_targets_rejected(backend):
    """Both backends reject unnormalized targets, in a measured family and
    alone."""
    half = BranchState((3, 3), [(0.5, (0, 0))], renormalize=False)
    s = backend.ghz(3, 2)
    with pytest.raises(ValueError, match="must be normalized"):
        backend.measure_targets(s, [half, shifted_ghz(3, (0, 1))], np.random.default_rng(0))
    with pytest.raises(ValueError, match="must be normalized"):
        backend.target_probability(s, half)


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
def test_target_probability_layout_checked(backend):
    s = backend.ghz(3, 2)
    with pytest.raises(ValueError, match=r"layout mismatch: \(3, 3, 3\) vs \(3, 3\)"):
        backend.target_probability(s, phase_ghz(3, 3, 0.0))
    assert backend.target_probability(s, phase_ghz(3, 2, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_one_label_mask_rows_match_the_vector_route():
    """A mask row that passes one label of a vector factor gives, to the bit,
    the branch that masking the vector and tidying it gives."""
    D = 3
    s = attach_register(ghz_branches(D, 2), D, phase_state(D, 0.7))
    for label in range(D):
        mask = np.zeros((D, D))
        mask[:, label] = 1.0
        family = branches_module.MeasurementFamily((D, D), [mask], diagonal=True)
        got = branches_module._route(s, [0, 2], family)[0][0]
        one_hot = np.eye(D, dtype=complex)[label]
        want = [branches_module._tidy_row(c, fs[:2] + (VecFactor(fs[2].amps * one_hot),), [2])
                for c, fs in s.branches]
        assert [np.array(c).tobytes() for c, _ in got] == [np.array(c).tobytes() for c, _ in want]
        assert [_row_key(fs, range(3)) for _, fs in got] == [_row_key(fs, range(3)) for _, fs in want]


def _public_ghz(D, N, theta=None, offsets=None):
    """The GHZ families built by the validating public constructor: the reference."""
    c = 1.0 / np.sqrt(D)
    if offsets is not None:
        return BranchState((D,) * len(offsets), [(c, tuple((j + o) % D for o in offsets)) for j in range(D)])
    return BranchState((D,) * N, [(c if theta is None else c * np.exp(1j * j * theta), (j,) * N)
                                  for j in range(D)])


def _assert_same_branches(got, want):
    assert got.dims == want.dims and all(type(d) is int for d in got.dims)
    assert [fs for _, fs in got.branches] == [fs for _, fs in want.branches]
    assert all(type(f) is int for _, fs in got.branches for f in fs)
    assert np.array([c for c, _ in got.branches]).tobytes() == \
        np.array([c for c, _ in want.branches]).tobytes()


def test_ghz_families_by_construction_match_the_public_constructor():
    """ghz_branches, phase_ghz and shifted_ghz skip the factor checks but are
    bitwise what the public constructor builds, renormalization included."""
    renormalized = 0
    for D in range(2, 130):
        for N in (1, 2, 3, 5, 8) if D < 60 else (1, 4):
            want = _public_ghz(D, N)
            _assert_same_branches(ghz_branches(D, N), want)
            renormalized += any(c != 1.0 / np.sqrt(D) for c, _ in want.branches)
            if D >= 60:
                continue
            for theta in (0.0, 2 * np.pi / D, 2 * np.pi * (D - 1) / D, 0.37):
                _assert_same_branches(branches_module._ghz.__wrapped__(D, (0,) * N, theta),
                                      _public_ghz(D, N, theta))
        if D < 60:
            rng = np.random.default_rng(D)
            for offsets in [(0, m) for m in range(D)] + [tuple(int(o) for o in rng.integers(0, D, 4))]:
                _assert_same_branches(branches_module._ghz.__wrapped__(D, offsets, 0.0),
                                      _public_ghz(D, 0, offsets=offsets))
    assert renormalized  # the constructor moves bits, so a build without it would fail here


def _score(bk, family, D, N):
    """``family`` scored on ``bk``'s N-register ballot of dimension D."""
    return bk.score_targets(bk.ghz(D, N), family)


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
@pytest.mark.parametrize("build, message", [
    (lambda bk: bk.ghz(3.7, 2), "D and N must be integers, got 3.7"),
    (lambda bk: bk.ghz(3, 2.0), "D and N must be integers, got 2.0"),
    (lambda bk: bk.ghz(True, 2), "D and N must be integers, got True"),
    (lambda bk: bk.ghz(3, True), "D and N must be integers, got True"),
    (lambda bk: bk.measure_targets(bk.ghz(4, 2), [phase_ghz(4.9, 2, 0.0)], None),
     "D and N must be integers, got 4.9"),
    (lambda bk: bk.measure_targets(bk.ghz(4, 2), [shifted_ghz(4, [0, 2.9])], None),
     "GHZ offsets must be integers, got 2.9"),
    (lambda bk: bk.measure_targets(bk.ghz(4, 2), [shifted_ghz(4.0, [0, 2])], None),
     "D and N must be integers, got 4.0"),
    (lambda bk: _score(bk, shift_family(4.5), 4, 2), "D and N must be integers, got 4.5"),
    (lambda bk: _score(bk, fourier_family(3.5), 3, 1), "D and N must be integers, got 3.5"),
    (lambda bk: _score(bk, phase_family(4, 2.5), 4, 2), "D and N must be integers, got 2.5"),
    (lambda bk: _score(bk, phase_family(4, 2, 1.5), 4, 2), "readout steps must be integers, got 1.5"),
    (lambda bk: _score(bk, phase_family(4, 2, True), 4, 2), "readout steps must be integers, got True"),
    (lambda bk: _score(bk, phase_family(4, 2, 0), 4, 2), "readout step must be >= 1, got 0"),
    (lambda bk: _score(bk, phase_family(4, 2, -1), 4, 2), "readout step must be >= 1, got -1"),
    # a size equal to a cached one as a value is still checked, not served from the cache
    (lambda bk: _score(bk, phase_family(4, 2) and phase_family(4.0, 2), 4, 2),
     "D and N must be integers, got 4.0"),
    (lambda bk: _score(bk, shift_family(4) and shift_family(4.0), 4, 2),
     "D and N must be integers, got 4.0"),
], ids=["D", "N", "bool-D", "bool-N", "phase_ghz", "offsets", "shifted-D", "shift_family",
        "fourier_family", "phase_family-N", "step", "bool-step", "zero-step", "negative-step",
        "cached-phase_family", "cached-shift_family"])
def test_fractional_ghz_sizes_rejected(build, message, backend):
    """A GHZ size, offset or readout step that is not an integer raises the same
    ValueError on both backends, rather than being truncated or failing on a cast."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build(backend)


def test_numpy_integer_ghz_sizes_accepted():
    D, N = np.int64(3), np.int32(2)
    for bk in (DenseBackend(), BranchBackend()):
        assert bk.dims(bk.ghz(D, N)) == (3, 3)
        assert _score(bk, phase_family(D, N, np.int16(1)), 3, 2)[0] == pytest.approx([1.0, 0.0, 0.0])
    assert len(shift_family(np.int64(3))) == 3 and shifted_ghz(D, np.array([0, 2])).dims == (3, 3)


@pytest.mark.parametrize("D, N", [(4, 32), (49, 48), (129, 128)])
def test_measured_dimension_is_exact_past_int64(D, N):
    """The measured space's dimension that a branch scoring gives the draw is D**N
    exactly, where a product in int64 wraps: to 0 at D=4, N=32, and negative at D=129."""
    assert _score(BranchBackend(), phase_family(D, N), D, N)[2] == D**N


def _per_pair_inners(dims, bras, ket):
    """The join with every matched pair overlapped on its own: the reference."""
    if len(ket) * sum(map(len, bras)) < branches_module._JOIN_MIN_PAIRS:
        key, rest = [], list(range(len(dims)))
    else:
        key = list(range(len(dims)))
        for side in {id(side): side for side in (ket, *bras)}.values():
            for _, fs in side:
                key = [r for r in key if type(fs[r]) is int]
        rest = [r for r in range(len(dims)) if r not in key]
    buckets = {}
    for cb, fb in ket:
        buckets.setdefault(tuple(fb[r] for r in key), []).append((cb, fb))
    out = []
    for bra in bras:
        total = 0.0 + 0.0j
        for ca, fa in bra:
            for cb, fb in buckets.get(tuple(fa[r] for r in key), ()):
                if not rest:
                    total += np.conj(ca) * cb
                    continue
                ov = branches_module._pair_overlap(fa, fb, rest)
                if ov != 0.0:
                    total += np.conj(ca) * cb * ov
        out.append(complex(total))
    return out


def _per_pair_norm_sq(dims, branch_list):
    rows = [fs for _, fs in branch_list]
    if all(type(f) is int for fs in rows for f in fs) and len(set(rows)) == len(rows):
        total = 0.0
        for c, _ in branch_list:
            total += c.real * c.real + c.imag * c.imag
        return float(total)
    return max(_per_pair_inners(dims, [branch_list], branch_list)[0].real, 0.0)


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


@hst.composite
def _join_cases(draw):
    """A ket and one to three bras over one layout. Each register holds a
    label on every row, one shared vector object on every row of every side,
    equal amplitudes in a distinct object per row, or anything."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    D = draw(hst.integers(2, 4))
    modes = draw(hst.lists(hst.sampled_from(["label", "shared", "twin", "any"]),
                           min_size=1, max_size=5))
    amps = [rng.normal(size=D) + 1j * rng.normal(size=D) for _ in modes]
    shared = [VecFactor(a / np.linalg.norm(a)) for a in amps]

    def factor(r, mode):
        if mode == "label" or (mode == "any" and rng.random() < 0.5):
            return int(rng.integers(0, min(D, 2)))  # few labels, so rows collide in the buckets
        if mode == "shared":
            return shared[r]
        if mode == "twin":
            return VecFactor(shared[r].amps)
        v = rng.normal(size=D) + 1j * rng.normal(size=D)
        return VecFactor(v / np.linalg.norm(v))

    def side(n):
        return [(complex(rng.normal(), rng.normal()),
                 tuple(factor(r, m) for r, m in enumerate(modes))) for _ in range(n)]

    ket = side(draw(hst.integers(1, 12)))
    bras = [side(draw(hst.integers(1, 8))) for _ in range(draw(hst.integers(1, 3)))]
    return (D,) * len(modes), modes, ket, bras


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_join_cases())
def test_shared_factor_join_equals_the_per_pair_loop(case):
    """Overlapping a factor shared by every row once per join gives, to the
    bit, what overlapping it per matched pair gave: for inner products over
    several bras, for norms, on both sides of the join threshold."""
    dims, modes, ket, bras = case
    rows = [fs for side in (ket, *bras) for _, fs in side]
    _, rest, free = branches_module._join_key(dims, ket, *bras)
    for r, mode in enumerate(modes):
        if mode == "twin" and len(rows) > 1:  # equal amplitudes, distinct objects: per pair
            assert r in free
        if mode == "shared":
            assert r in rest and r not in free
    for min_pairs in (0, branches_module._JOIN_MIN_PAIRS, 10**6):
        with mock.patch.object(branches_module, "_JOIN_MIN_PAIRS", min_pairs):
            got = branches_module._inners(dims, bras, ket)
            assert list(map(_hex, got)) == list(map(_hex, _per_pair_inners(dims, bras, ket)))
            for branch_list in (ket, bras[0]):
                want = float(_per_pair_norm_sq(dims, branch_list)).hex()
                assert float(_branch_norm_sq(dims, branch_list)).hex() == want
                labels = all(type(f) is int for _, fs in branch_list for f in fs)
                assert float(_branch_norm_sq(dims, branch_list, labels)).hex() == want


def _per_member_collapse(state, target, regs, rest):
    """One target's collapse with its own rest rows: the reference."""
    out = []
    for tc, tf in target.branches:
        tvecs = [branches_module._factor_vector(f, d) for f, d in zip(tf, target.dims)]
        for c, factors in state.branches:
            scal = np.conj(tc) * c
            for tvec, r in zip(tvecs, regs):
                f = factors[r]
                scal *= np.conj(tvec[f]) if type(f) is int else np.vdot(tvec, f.amps)
                if scal == 0.0:
                    break
            if abs(scal) > branches_module._ZERO_TOL:
                out.append((scal, tuple(factors[r] for r in rest)))
    return out


def _branch_list_bytes(branch_list):
    return ([np.array(c).tobytes() for c, _ in branch_list],
            [_row_key(fs, range(len(fs))) for _, fs in branch_list])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(D=hst.integers(2, 6), N=hst.integers(2, 6), seed=hst.integers(0, 2**32 - 1),
       fourier=hst.booleans())
def test_ket_family_collapse_equals_the_per_member_reference(D, N, seed, fourier):
    """Announcing every register in a one-register ket family gives, at each
    step, the Born weights and post-states of a per-member collapse, to the bit."""
    rng = np.random.default_rng(seed)
    if fourier:
        kets = fourier_basis_kets(D)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))
        kets = list(q.T)
    family = branches_module.MeasurementFamily((D,), kets)
    state = ghz_branches(D, N)
    for k in rng.permutation(N)[: N // 2].tolist():
        state = apply_branch_local(state, k, phase_vote_matrix(D, int(rng.integers(1, D))))
    for reg in rng.permutation(N).tolist():
        rest = [r for r in range(N) if r != reg]
        probs, post = branches_module._project(state, [reg], family)
        chis = [_per_member_collapse(state, t, [reg], rest) for t in family.targets]
        assert [float(p).hex() for p in probs] == \
            [float(_per_pair_norm_sq((D,) * (N - 1), chi)).hex() for chi in chis]
        slots = np.argsort([reg] + rest)
        for k, p in enumerate(probs):
            if p > 0.0:
                n = np.sqrt(p)
                want = [(tc * (c / n), tuple((tf + rf)[i] for i in slots))
                        for tc, tf in family.targets[k].branches for c, rf in chis[k]]
                assert _branch_list_bytes(post(k, n)) == _branch_list_bytes(want)
        _, state, _ = branch_measure(state, family, rng, registers=[reg])


@pytest.mark.parametrize("backend", [DenseBackend(), BranchBackend()], ids=["dense", "branch"])
def test_target_norm_checked_once(backend):
    """A target renormalized when it was built is not re-checked per call;
    one built without renormalizing is, and a norm-0.5 one is rejected."""
    s = backend.ghz(3, 2)
    exact = BranchState((3, 3), [(1.0, (0, 0))], renormalize=False)
    calls = []
    norm_sq = branches_module._branch_norm_sq
    with mock.patch.object(branches_module, "_branch_norm_sq",
                           side_effect=lambda *a: calls.append(a) or norm_sq(*a)):
        for target in (phase_ghz(3, 2, 0.4), shifted_ghz(3, (0, 1)), ghz_branches(3, 2),
                       BranchState((3, 3), [(1.0, (1, 1))])):
            backend.target_probability(s, target)
        assert calls == []
        assert backend.target_probability(s, exact) == pytest.approx(1 / 3, abs=1e-12)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="must be normalized"):
            backend.target_probability(s, BranchState((3, 3), [(0.5, (0, 0))], renormalize=False))
