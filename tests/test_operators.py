"""Operators as checked values: every raw matrix reaches a backend through the
one ``LocalOp`` constructor, a value is checked once when it is built, and the
protocols' repeated operators are built once per argument set."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qvote import protocols
from qvote.anticheat import AuthoritySecrets, run_round
from qvote.backends import BranchBackend, DenseBackend
from qvote.branches import BranchState, VecFactor, _check_norm_offset
from qvote.matrices import phase_state, phase_vote_matrix, shift_matrix
from qvote.states import DenseState, DensityMatrix, LocalOp, _draw_outcome, cached_op

BACKENDS = [DenseBackend(), BranchBackend()]
IDS = ["dense", "branch"]


def _record_builds(monkeypatch) -> list[np.ndarray]:
    """Every matrix handed to the LocalOp constructor from now on."""
    built = []
    init = LocalOp.__init__

    def recording(self, U, dim=None):
        built.append(np.array(U, dtype=complex))
        init(self, U, dim)

    monkeypatch.setattr(LocalOp, "__init__", recording)
    return built


@pytest.mark.parametrize("backend", ["dense", "branch"])
@pytest.mark.parametrize("scheme", ["distributed", "traveling"])
def test_second_tally_checks_no_operator(monkeypatch, backend, scheme):
    """The vote operator is built once per (D, k), so a second tally at the
    same size runs no unitarity check."""
    cfg = protocols.ProtocolConfig(D=6, N=5, scheme=scheme)
    run = getattr(protocols, f"run_{scheme}")
    votes = [1, 0, 1, 1, 1]
    run(cfg, votes, backend, rng=np.random.default_rng(0))
    built = _record_builds(monkeypatch)
    assert run(cfg, votes, backend, rng=np.random.default_rng(1)).m == 4
    assert built == []


@pytest.mark.parametrize("backend", ["dense", "branch"])
@pytest.mark.parametrize("variant", ["distributed", "traveling"])
def test_second_anticheat_round_rebuilds_no_shift_or_wrap(monkeypatch, backend, variant):
    D, N = 7, 3
    secrets = AuthoritySecrets(yes_level=2, no_level=0, offset=0.4)
    votes = [1, 1, 0]
    first, _ = run_round(D, N, secrets, votes, np.random.default_rng(3), backend, variant)
    built = _record_builds(monkeypatch)
    again, _ = run_round(D, N, secrets, votes, np.random.default_rng(3), backend, variant)
    assert again.q == first.q == 4
    assert built == []


def test_value_is_immutable_in_fact():
    U = shift_matrix(4, 1)
    op = LocalOp(U)
    U[:] = 0  # the caller's array, not the value's
    assert np.array_equal(op.matrix, shift_matrix(4, 1))
    perm, phases = op.monomial
    assert perm.tolist() == [1, 2, 3, 0] and np.array_equal(phases, np.ones(4))
    for array in (op.matrix, perm, phases):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    for name in ("matrix", "dim", "monomial", "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(op, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        del op.matrix
    assert LocalOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2)).monomial is None


def _branch_bytes(state):
    return state.dims, [(np.array(c).tobytes(), tuple(
        f.amps.tobytes() if isinstance(f, VecFactor) else f for f in fs)) for c, fs in state.branches]


def _state_bytes(backend, state):
    return state.amps.tobytes() if backend.name == "dense" else _branch_bytes(state)


def _unitary(n, monomial, rng):
    if monomial:
        return np.eye(n)[rng.permutation(n)] @ np.diag(np.exp(2j * np.pi * rng.random(n)))
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(D=hst.integers(2, 4), N=hst.integers(2, 3), monomial=hst.booleans(),
       pair=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_value_and_raw_matrix_apply_alike(D, N, monomial, pair, seed):
    """A value and its raw matrix give bitwise-equal states on both backends,
    from a ballot with a vector factor on one register."""
    rng = np.random.default_rng(seed)
    first = _unitary(D, False, rng)
    U = _unitary(D * D if pair else D, monomial, rng)
    regs = tuple(rng.permutation(N)[:2])
    for bk in BACKENDS:
        state = bk.apply_local(bk.ghz(D, N), int(regs[1]), first)
        if pair:
            raw, value = (bk.apply_pair(state, regs, M) for M in (U, LocalOp(U)))
        else:
            raw, value = (bk.apply_local(state, int(regs[0]), M) for M in (U, LocalOp(U)))
        assert _state_bytes(bk, raw) == _state_bytes(bk, value)


def _message(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
def test_bad_operators_raise_the_same_words_raw_or_as_value(backend):
    """A non-square or non-unitary matrix cannot become a value, and raises
    what the raw apply raises; a value of the wrong dimension raises the
    raw matrix's dimension error."""
    state = backend.ghz(4, 2)
    local = lambda M: backend.apply_local(state, 0, M)  # noqa: E731
    pair = lambda M: backend.apply_pair(state, (0, 1), M)  # noqa: E731
    cases = [
        (local, np.ones((4, 3)), "operator must be square, got shape (4, 3)"),
        (pair, np.ones((16, 4)), "operator must be square, got shape (16, 4)"),
        (local, shift_matrix(3, 1), "operator dimension 3 does not match register dimension 4"),
        (pair, shift_matrix(4, 1), "operator dimension 4 does not match register dimension 16"),
        (local, np.diag([1, 1, 1, 2.0]), "operator is not unitary (max deviation 3.000e+00)"),
        (pair, 2 * np.eye(16), "operator is not unitary (max deviation 3.000e+00)"),
    ]
    for apply, U, words in cases:
        assert _message(lambda: apply(U)) == words
        assert _message(lambda: apply(LocalOp(U))) == words


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
@pytest.mark.parametrize("dim, initial, words", [
    (3, np.ones(2) / np.sqrt(2), "initial vector length does not match the register dimension"),
    (3, np.ones(3), "attached register state must be normalized"),
    (3, np.full(3, np.nan), "attached register state must be normalized"),
    (3, 3, "initial label 3 out of range for dimension 3"),
    (1, 0, "register dimensions must be >= 2, got 1"),
], ids=["short", "unnormalized", "nan", "label", "dim"])
def test_attach_checks_alike_on_both_backends(backend, dim, initial, words):
    assert _message(lambda: backend.attach(backend.ghz(3, 2), dim, initial)) == words


def _nan_at(U, j, k):
    U = np.array(U, dtype=complex)
    U[j, k] = np.nan
    return U


def _nan_target():
    return BranchState((3, 3), [(np.nan, (0, 0)), (1.0, (1, 1))], renormalize=False)


def _nan_branch_state():
    """A NaN coefficient in a state built unchecked, as a backend operation would."""
    return BranchState._trusted((3, 3), [(np.nan, (0, 0)), (1.0, (1, 1))])


NOT_UNITARY = "operator is not unitary (max deviation nan)"
NO_IDENTITY = "projector family does not resolve the identity on the state (probabilities sum to nan)"
NOT_NORMALIZED = "measurement targets must be normalized (squared norm off by nan)"

_NAN_ON_BACKENDS = {  # entry point: (call(backend), words on the dense and the branch backend)
    "unitary diagonal": (lambda bk: bk.apply_local(bk.ghz(3, 2), 0, _nan_at(np.eye(3), 1, 1)),
                         NOT_UNITARY),
    "unitary off-diagonal": (lambda bk: bk.apply_local(bk.ghz(3, 2), 0,
                                                       _nan_at(shift_matrix(3, 1), 0, 0)),
                             NOT_UNITARY),
    "pair unitary": (lambda bk: bk.apply_pair(bk.ghz(3, 2), (0, 1), _nan_at(np.eye(9), 4, 2)),
                     NOT_UNITARY),
    "state": (lambda bk: DenseState((3,), [np.nan, 1, 0]) if bk.name == "dense"
              else BranchState((3,), [(1.0, (VecFactor(np.array([np.nan, 1, 0])),))]),
              ("amplitudes must be finite", "local factor norm np.float64(nan) outside (0, 1]")),
    "target norm": (lambda bk: bk.target_probability(bk.ghz(3, 2), _nan_target()), NOT_NORMALIZED),
    "kets": (lambda bk: bk.measure_local_kets(bk.ghz(3, 2), 0, [np.array([np.nan, 1, 0])],
                                              np.random.default_rng(0)),
             "rank-1 projector ket must be normalized and match the register"),
}

_NAN_SHARED = {  # checks one function makes for both backends
    "Born sum, complete family": (lambda: _draw_outcome([np.nan, 0.5], 2, 2, np.random.default_rng(0)),
                                  NO_IDENTITY),
    "Born sum, remainder": (lambda: _draw_outcome([np.nan, 0.5], 2, 3, np.random.default_rng(0)),
                            NO_IDENTITY),
    "Born sum of a branch state": (lambda: BranchBackend().measure_diag(
        _nan_branch_state(), [0, 1], [np.eye(3), 1 - np.eye(3)], np.random.default_rng(0)), NO_IDENTITY),
    "density matrix": (lambda: DensityMatrix([[np.nan, 0], [0, 1]]),
                       "density matrix is not Hermitian within tolerance"),
    "reduced branch state": (lambda: BranchBackend().reduced(_nan_branch_state(), [0]),
                             "density matrix is not Hermitian within tolerance"),
    "branch coefficient": (lambda: BranchState((3, 3), _nan_target().branches),
                           "branch state norm nan deviates from 1 beyond 1e-10"),
    "norm offset": (lambda: _check_norm_offset(np.nan), NOT_NORMALIZED),
}


@pytest.mark.parametrize("backend", BACKENDS, ids=IDS)
@pytest.mark.parametrize("case", sorted(_NAN_ON_BACKENDS))
def test_nan_fails_every_tolerance_check(backend, case):
    """A NaN compares false with any tolerance, so every check is written to
    pass only when the value is within it."""
    call, words = _NAN_ON_BACKENDS[case]
    if isinstance(words, tuple):
        words = words[backend.name == "branch"]
    assert _message(lambda: call(backend)) == words


@pytest.mark.parametrize("case", sorted(_NAN_SHARED))
def test_nan_fails_the_shared_checks(case):
    call, words = _NAN_SHARED[case]
    assert _message(call) == words


def test_attached_label_and_vector_agree_on_both_backends():
    vec = phase_state(3, 0.7)
    for initial in (2, vec, np.eye(3)[1]):
        dense, branch = (bk.attach(bk.ghz(3, 2), 3, initial) for bk in BACKENDS)
        assert np.max(np.abs(BACKENDS[1].amplitudes(branch) - dense.amps)) <= 1e-15


def test_phase_vote_value_is_cached_by_size():
    a = cached_op(phase_vote_matrix, 5, 1)
    assert cached_op(phase_vote_matrix, 5, 1) is a
    assert cached_op(phase_vote_matrix, 5, 2) is not a
    assert a.matrix.tobytes() == phase_vote_matrix(5, 1).tobytes()
