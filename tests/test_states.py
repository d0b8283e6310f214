"""Dense state-core tests: construction, unitaries, traces, measurement."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvote import states as states_module
from qvote.backends import get_backend
from qvote.branches import ghz_branches
from qvote.matrices import phase_vote_matrix, shift_matrix, swap_pair_matrix
from qvote.states import (
    DenseBudgetError,
    DenseState,
    DensityMatrix,
    align_global_phase,
    apply_joint,
    apply_local,
    drop_product_register,
    make_uniform_ghz,
    maximally_mixed,
    measure_projective,
    partial_trace,
    sample_index,
    trace_distance,
)


def ghz_amps(D, N):
    amps = np.zeros(D**N, dtype=complex)
    # hand enumeration: |j,j,...,j> sits at sum_k j * D^k
    for j in range(D):
        idx = 0
        for _ in range(N):
            idx = idx * D + j
        amps[idx] = 1 / np.sqrt(D)
    return amps


def traveling_tally_state(D, m):
    # (1/sqrt(D)) sum_j |j>_a |j+m>_b
    amps = np.zeros(D * D, dtype=complex)
    for j in range(D):
        amps[j * D + (j + m) % D] = 1 / np.sqrt(D)
    return DenseState((D, D), amps)


class TestConstruction:
    def test_ghz_single_register(self):
        s = make_uniform_ghz(2, 1)
        assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_ghz_bell_pair(self):
        s = make_uniform_ghz(2, 2)
        assert np.allclose(s.amps, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_ghz_three_qutrits_hand_enumerated(self):
        s = make_uniform_ghz(3, 3)
        expected = np.zeros(27, dtype=complex)
        expected[[0, 13, 26]] = 1 / np.sqrt(3)  # 000, 111, 222 in base 3
        assert np.allclose(s.amps, expected)
        assert np.allclose(s.amps, ghz_amps(3, 3))

    def test_budget_rejected(self):
        with pytest.raises(DenseBudgetError):
            make_uniform_ghz(2, 23)

    def test_degenerate_dim_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_ghz(1, 2)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            DenseState((2,), np.array([1.0, 1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DenseState((2,), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("amps, words", [
        ([np.nan, 0.0], "amplitudes must be finite"),
        ([0.0, complex(0.0, np.nan)], "amplitudes must be finite"),
        ([np.inf, 0.0], "amplitudes must be finite"),
        ([1.0, -np.inf], "amplitudes must be finite"),
        ([1.0, 1.0], "state norm 1.4142135623730951 deviates from 1 beyond 1e-10"),
        ([1e200, 1e200], "state norm inf deviates from 1 beyond 1e-10"),
        ([0.0, 0.0], "state norm 0.0 deviates from 1 beyond 1e-10"),
    ])
    def test_construction_messages(self, amps, words):
        """The norm is checked first; a failed check names a non-finite amplitude
        before the norm, and a finite vector whose norm overflows by its norm."""
        with pytest.raises(ValueError, match=f"^{re.escape(words)}$"), np.errstate(over="ignore"):
            DenseState((2,), np.array(amps))


_TOL = states_module.NORM_TOL
# signed zeros, subnormals and the smallest normal among the entries
_ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-160])
            | st.floats(-1.0, 1.0, allow_subnormal=True))
# a norm within NORM_TOL of 1, or the root of a probability that is not vanishing
_SCALES = (st.floats(1.0 - _TOL, 1.0 + _TOL)
           | st.floats(states_module.VANISHING_PROB, 1.0, exclude_min=True).map(np.sqrt))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=2, max_size=24), _SCALES, st.integers(1, 3))
def test_reciprocal_scaling_is_the_division_bit_for_bit(entries, n, step):
    """``x * complex(1/n, -0.0)`` is numpy's ``x / n`` for a complex ``x``, signed
    zeros and subnormals included, over the scales the dense state divides by:
    a norm within NORM_TOL of 1 and the square root of a non-vanishing probability."""
    x = np.empty(len(entries), dtype=complex)
    x.real, x.imag = np.array(entries).T
    views = [x, x[::step], x[::-1]] + ([x.reshape(2, -1).T] if len(x) % 2 == 0 else [])
    for v in views:
        assert (v * complex(1.0 / n, -0.0)).tobytes() == (v / n).tobytes()
        assert states_module._scaled(v, n).tobytes() == (v / n).tobytes()
    norm = float(np.linalg.norm(x))
    if norm > 0.0:  # the constructor renormalizes a vector within NORM_TOL of unit norm
        unit = (x / norm) * n if abs(n - 1.0) <= _TOL else x / norm
        norm = float(np.linalg.norm(unit))
        if abs(norm - 1.0) <= _TOL:
            assert DenseState((len(x),), unit).amps.tobytes() == (unit / norm).tobytes()


class TestApplyLocal:
    def test_identity_leaves_state(self):
        s = make_uniform_ghz(3, 2)
        s2 = apply_local(s, 0, np.eye(3))
        assert np.allclose(s2.amps, s.amps)

    def test_shift_on_second_register_gives_shifted_tally_state(self):
        D = 4
        s = make_uniform_ghz(D, 2)
        s2 = apply_local(s, 1, shift_matrix(D))
        assert np.allclose(s2.amps, traveling_tally_state(D, 1).amps)

    def test_phase_op_gives_phase_tally_state(self):
        D, N = 3, 3
        s = make_uniform_ghz(D, N)
        s2 = apply_local(s, 1, phase_vote_matrix(D))
        expected = ghz_amps(D, N)
        for j in range(D):
            idx = j * (D**N - 1) // (D - 1)
            expected[idx] *= np.exp(2j * np.pi * j / D)
        assert np.allclose(s2.amps, expected)

    def test_non_unitary_rejected(self):
        s = make_uniform_ghz(2, 2)
        with pytest.raises(ValueError):
            apply_local(s, 0, np.array([[1, 1], [0, 1]], dtype=complex))

    def test_dimension_mismatch_rejected(self):
        s = make_uniform_ghz(3, 2)
        with pytest.raises(ValueError):
            apply_local(s, 0, np.eye(2))


class TestApplyJoint:
    def test_swap_exchanges_labels(self):
        D = 3
        for k in range(D):
            for j in range(D):
                s = DenseState((D, D), np.eye(D * D)[k * D + j])  # |k j>
                s2 = apply_joint(s, [0, 1], swap_pair_matrix(D))
                assert np.allclose(s2.amps, np.eye(D * D)[j * D + k])

    def test_identity_on_two_registers(self):
        s = make_uniform_ghz(2, 3)
        s2 = apply_joint(s, [0, 2], np.eye(4))
        assert np.allclose(s2.amps, s.amps)

    def test_controlled_unshift_disentangles(self):
        # U maps |j>_b |j-r mod D>_v -> |j>_b |0>_v for every j (here r=1).
        D, r = 3, 1
        U = np.zeros((D * D, D * D), dtype=complex)
        for j in range(D):
            for v in range(D):
                # shift the v register by -(j - r) conditioned on the b label
                U[j * D + (v - (j - r)) % D, j * D + v] = 1.0
        for j in range(D):
            s = DenseState((D, D), np.eye(D * D)[j * D + (j - r) % D])  # |j, j-r>
            s2 = apply_joint(s, [0, 1], U)
            assert np.allclose(s2.amps, np.eye(D * D)[j * D])


class TestPartialTrace:
    def test_ballot_register_is_maximally_mixed(self):
        D = 5
        s = make_uniform_ghz(D, 2)
        for reg in (0, 1):
            rho = partial_trace(s, [reg])
            assert trace_distance(rho, maximally_mixed(D)) <= 1e-12

    def test_keep_all_is_pure_projector(self):
        s = make_uniform_ghz(2, 2)
        rho = partial_trace(s, [0, 1])
        assert np.max(np.abs(rho.matrix - np.outer(s.amps, s.amps.conj()))) <= 1e-12

    def test_product_state_reduces_cleanly(self):
        # (|00> + |01>)/sqrt(2): tracing register 1 leaves |0><0| on register 0
        s = DenseState((2, 2), np.array([1, 1, 0, 0]) / np.sqrt(2))
        rho = partial_trace(s, [0])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])


class TestMeasurement:
    def test_tally_basis_is_deterministic(self):
        D, m = 4, 2
        rng = np.random.default_rng(7)
        state = traveling_tally_state(D, m)
        kets = [traveling_tally_state(D, mm).amps for mm in range(D)]
        outcome, post, p = measure_projective(state, kets, rng)
        assert outcome == m
        assert p == pytest.approx(1.0, abs=1e-12)
        assert_allclose(align_global_phase(post.amps), align_global_phase(state.amps), rtol=0, atol=1e-12)

    def test_pair_agreement_projector_passes_clean_ballot(self):
        D, N = 3, 3
        rng = np.random.default_rng(3)
        s = make_uniform_ghz(D, N)
        agree = np.zeros((D * D, D * D), dtype=complex)
        for j in range(D):
            agree[j * D + j, j * D + j] = 1.0
        outcome, post, p = measure_projective(s, [agree], rng, registers=[0, 1])
        assert outcome == 0
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(post.amps, s.amps)

    def test_trivial_outcome(self):
        rng = np.random.default_rng(0)
        s = DenseState((2,), [1, 0])
        outcome, post, p = measure_projective(
            s, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], rng
        )
        assert outcome == 0 and p == pytest.approx(1.0)

    def test_remainder_synthesized(self):
        rng = np.random.default_rng(1)
        amps = np.array([1, 1], dtype=complex) / np.sqrt(2)
        s = DenseState((2,), amps)
        # Only |0><0| supplied: the complement must be synthesized as outcome 1.
        outcomes = {measure_projective(s, [np.diag([1.0, 0.0])], rng)[0] for _ in range(20)}
        assert outcomes == {0, 1}

    def test_non_orthogonal_family_rejected(self):
        rng = np.random.default_rng(2)
        s = DenseState((2,), [1, 0])
        v = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(ValueError):
            measure_projective(s, [np.array([1.0, 0]), v], rng)

    def test_empty_projector_list_rejected(self):
        rng = np.random.default_rng(2)
        s = DenseState((2,), [1, 0])
        with pytest.raises(ValueError):
            measure_projective(s, [], rng)

    def test_shared_draw_checks_the_sum_and_draws_the_remainder(self):
        """Both backends sample through one draw: a sum a hair above 1 is
        rejected, a remainder up to 1e-10 is never drawn, a larger one is."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="does not resolve the identity"):
            states_module._draw_outcome([0.5, 0.5 + 5e-9], 2, 3, rng)
        with pytest.raises(ValueError, match="does not resolve the identity"):
            states_module._draw_outcome([0.5, 0.5 - 5e-9], 3, 3, rng)
        seen = []
        with mock.patch.object(states_module, "sample_index",
                               side_effect=lambda p, r: seen.append(p) or len(p) - 1):
            assert states_module._draw_outcome([0.5, 0.5 - 5e-11], 2, 3, rng) == 1
            assert states_module._draw_outcome([0.9], 1, 3, rng) == 1
        assert seen[0] == [0.5, 0.5 - 5e-11]
        assert seen[1] == [0.9, pytest.approx(0.1, abs=1e-15)]

    def test_born_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        D = 3
        s = make_uniform_ghz(D, 2)
        kets = np.eye(D * D, dtype=complex)  # |a b> for every label pair
        total = 0.0
        for ket in kets:
            amp = np.vdot(ket, s.amps)
            total += abs(amp) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestInnerProductAndDistance:
    def test_self_overlap(self):
        s = traveling_tally_state(3, 1)
        assert np.vdot(s.amps, s.amps) == pytest.approx(1.0)

    def test_distinct_tally_states_orthogonal(self):
        D = 5
        for m in range(D):
            for mp in range(D):
                ov = np.vdot(traveling_tally_state(D, m).amps, traveling_tally_state(D, mp).amps)
                assert abs(ov - (1.0 if m == mp else 0.0)) <= 1e-12

    def test_layout_mismatch(self):
        # the dense overlap the program runs: a tally target against a state of another layout
        with pytest.raises(ValueError, match="layout mismatch"):
            get_backend("dense").target_probability(make_uniform_ghz(2, 2), ghz_branches(4, 1))

    def test_trace_distance_examples(self):
        rho = maximally_mixed(2)
        p0 = DensityMatrix(np.diag([1.0, 0.0]))
        p1 = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)
        # eigenvalues of (I/2 - |0><0|) are +/- 1/2
        assert trace_distance(rho, p0) == pytest.approx(0.5, abs=1e-12)

    def test_trace_distance_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(maximally_mixed(2), maximally_mixed(3))


class TestDropProductRegister:
    def test_drop_pristine_ancilla(self):
        s = DenseState((3, 3), np.kron([1, 0, 0], [0, 1, 0]))
        s2 = drop_product_register(s, 1)
        assert s2.dims == (3,)
        assert np.allclose(np.abs(s2.amps), [1, 0, 0])

    def test_entangled_register_rejected(self):
        s = make_uniform_ghz(2, 2)
        with pytest.raises(ValueError):
            drop_product_register(s, 0)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10_000))
def test_unitaries_preserve_norm(D, N, seed):
    rng = np.random.default_rng(seed)
    s = make_uniform_ghz(D, N)
    reg = int(rng.integers(N))
    s = apply_local(s, reg, random_unitary(D, rng))
    assert abs(s.norm() - 1.0) <= 1e-10
    rho = partial_trace(s, list(range(N)))
    proj = np.outer(s.amps, s.amps.conj())
    assert np.max(np.abs(rho.matrix - proj)) <= 1e-12


def _eager_projected(state, registers, projectors, diagonal):
    """The dense measurement before in-place scoring: every member of the
    family expanded into its projected (measured, rest) matrix."""
    regs = list(range(state.num_registers)) if registers is None else list(registers)
    mat, perm = states_module._as_matrix(state, regs)
    masks, kets = states_module._parse_family(projectors, tuple(state.dims[r] for r in regs), diagonal)
    projected = [mat * m.reshape(-1, 1) for m in masks] + [np.outer(k, k.conj() @ mat) for k in kets]
    return mat, perm, sum(map(np.sum, masks)) + len(kets), projected


def _eager_measure(state, projectors, rng, registers, diagonal):
    mat, perm, rank, projected = _eager_projected(state, registers, projectors, diagonal)
    probs = [float(np.real(np.vdot(post, post))) for post in projected]
    outcome = states_module._draw_outcome(probs, rank, mat.shape[0], rng)
    if outcome == len(projected):
        projected.append(mat - sum(projected))
        probs.append(float(np.real(np.vdot(projected[-1], projected[-1]))))
    p = probs[outcome]
    return outcome, states_module._from_matrix(state, projected[outcome] / np.sqrt(p), perm), p


def _eager_project(state, registers, projector, diagonal):
    _, perm, _, (post,) = _eager_projected(state, registers, [projector], diagonal)
    p = float(np.real(np.vdot(post, post)))
    if p <= states_module.VANISHING_PROB:
        return p, None
    return p, states_module._from_matrix(state, post / np.sqrt(p), perm)


@st.composite
def _family_cases(draw):
    """A random state on 1-3 registers of dims 2-4, registers to measure (all
    or a subset, in any order, or None), and a possibly incomplete family on
    them: 0/1 masks (shaped or flat), diagonal matrices, or orthonormal kets."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(dims))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    state = DenseState(dims, amps / np.linalg.norm(amps))
    registers = None
    if draw(st.booleans()):
        perm = rng.permutation(len(dims))
        registers = [int(r) for r in perm[: int(rng.integers(1, len(dims) + 1))]]
    sdims = dims if registers is None else tuple(dims[r] for r in registers)
    sub = int(np.prod(sdims))
    kind = draw(st.sampled_from(["mask", "matrix", "ket"]))
    if kind == "ket":
        z = rng.normal(size=(sub, sub)) + 1j * rng.normal(size=(sub, sub))
        basis = np.linalg.qr(z)[0].T
        family = [basis[j] for j in rng.permutation(sub)[: int(rng.integers(1, sub + 1))]]
    else:
        groups = rng.integers(0, int(rng.integers(1, sub + 1)), size=sub)
        masks = [(groups == g).astype(float) for g in np.unique(groups)]
        masks = [masks[j] for j in rng.permutation(len(masks))[: int(rng.integers(1, len(masks) + 1))]]
        if kind == "matrix":
            family = [np.diag(m) for m in masks]
        else:
            family = [m.reshape(sdims) if rng.random() < 0.5 else m for m in masks]
    return state, registers, family, kind == "mask", int(rng.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_family_cases())
def test_in_place_scoring_matches_eager_expansion(case):
    """Scoring every member in place and expanding only the drawn one gives
    the outcome, probability and post-state the eager expansion of every
    member gave, to the bit; so does the projection onto one member."""
    state, registers, family, diagonal, seed = case
    got = measure_projective(state, family, np.random.default_rng(seed), registers, diagonal=diagonal)
    want = _eager_measure(state, family, np.random.default_rng(seed), registers, diagonal)
    assert got[0] == want[0]
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()
    assert got[1].amps.tobytes() == want[1].amps.tobytes()
    regs = list(range(state.num_registers)) if registers is None else registers
    p, post = states_module.project(state, regs, family[-1], diagonal=diagonal)
    p0, post0 = _eager_project(state, regs, family[-1], diagonal)
    assert np.array(p).tobytes() == np.array(p0).tobytes()
    assert (post is None and post0 is None) or post.amps.tobytes() == post0.amps.tobytes()


def _numpy_sample_index(probs, rng):
    """The single draw as numpy's inverse CDF takes it: the reference."""
    cum = np.cumsum(np.clip(np.asarray(probs, dtype=float), 0.0, None))
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, len(cum) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, -0.0, -0.25, 1e-300, 1e-17, 0.1, 0.3, 0.5, 2.0])
                | st.floats(-1.0, 1.0), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_single_draw_matches_numpy(weights, seed):
    """The plain-Python single draw picks numpy's index and leaves the rng
    where numpy's draw leaves it, zeros and negative weights included."""
    if not sum(w for w in weights if w > 0.0) > 0.0:
        with pytest.raises(ValueError, match="all outcome probabilities vanish"):
            sample_index(weights, np.random.default_rng(seed))
        return
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert sample_index(weights, a) == _numpy_sample_index(weights, b)
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("size", [None, 4])
def test_non_finite_weight_raises(bad, size):
    """A NaN or infinite weight is never drawn as an outcome, on either path."""
    for weights in ([bad, 0.5], [0.3, bad, 0.2], [0.5, bad]):
        with pytest.raises(ValueError, match="outcome weights must be finite"):
            sample_index(weights, np.random.default_rng(0), size)


_WEIGHTS = st.sampled_from([0.0, -0.0, -1e-17, 1e-17, 1e-11, 0.1, 0.25, 0.5, 1.0, 1.0 + 1e-9]) \
    | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
           st.lists(_WEIGHTS, min_size=m, max_size=m).map(lambda row: [w / max(1.0, sum(row)) for w in row])
           | st.lists(_WEIGHTS | st.sampled_from([np.nan, np.inf, -np.inf]), min_size=m, max_size=m),
           min_size=1, max_size=8)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_row_draws_equal_the_single_draw(rows, complete, seed):
    """``_draw_rows`` checks and draws each row as ``_draw_outcome`` does from
    the same uniform: remainder rows, clipped weights, and rejections."""
    m = len(rows[0])
    rank, dim = (m, m) if complete else (m, m + 1)
    ref_rng = np.random.default_rng(seed)
    expected, errors = [], []
    for row in rows:
        try:
            expected.append(states_module._draw_outcome(list(row), rank, dim, ref_rng))
        except ValueError as exc:
            errors.append(str(exc))
            ref_rng.random()  # the row's uniform is still taken from the block
    u = np.random.default_rng(seed).random(len(rows))
    if errors:
        with pytest.raises(ValueError) as exc:
            states_module._draw_rows(np.array(rows), u, complete)
        if not np.isfinite(rows).all():  # checked before the sums, so no sum is NaN
            assert str(exc.value) == "outcome weights must be finite"
        elif len(rows) == 1:
            assert str(exc.value) == errors[0]
        return
    assert states_module._draw_rows(np.array(rows), u, complete).tolist() == expected


def test_one_inverse_cdf_rule_skips_a_leading_zero_weight():
    """Born rows and unnormalized weights (the phase estimates') draw by one rule,
    sample_index's: the first running sum above u times the total, so u = 0
    never draws a zero-weight outcome."""
    w, u = np.array([[0.0, 0.5, 0.5]]), np.array([0.0])
    assert states_module._inverse_cdf(w, u).tolist() == [1]
    assert states_module._inverse_cdf(4 * w, u).tolist() == [1]
    assert states_module._draw_rows(w, u, complete=True).tolist() == [1]
    assert states_module.sample_index([0.0, 0.5, 0.5], mock.Mock(random=lambda: 0.0)) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
           st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 50.0), min_size=m, max_size=m)
           .filter(lambda row: sum(row) > 0.0), min_size=1, max_size=8)),
       st.integers(0, 2**32 - 1))
def test_inverse_cdf_draws_each_row_as_sample_index(rows, seed):
    """Unnormalized rows, ties and zero weights included, against one
    sample_index call per row on the same stream."""
    ref_rng = np.random.default_rng(seed)
    expected = [states_module.sample_index(row, ref_rng) for row in rows]
    u = np.random.default_rng(seed).random(len(rows))
    assert states_module._inverse_cdf(np.array(rows), u).tolist() == expected
