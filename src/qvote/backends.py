"""Uniform operation surface over the dense and branch state backends.

Protocol code is written once against this surface; measurement targets are
described as :class:`BranchState` values in a checked
:class:`~qvote.branches.MeasurementFamily`. Every dense measurement scores
each member in place (targets by contraction with the amplitudes) and expands
only the drawn member, through :func:`qvote.states._sample`.
Both backends consume randomness through the same inverse-CDF sampler, so a
shared seed yields identical outcome sequences whenever the Born
probabilities agree. ``score_targets`` is the scoring step of
``measure_targets`` on its own: the Born weights, the family's rank and the
measured space's dimension, which :func:`qvote.states._draw_outcome` draws
from as ``measure_targets`` does, with no post-state, as often as asked.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import branches as br
from . import states as st
from .branches import BranchState
from .states import DenseState


def _scored_dense(state, regs, family):
    """Any family kind, scored on a dense state: the (measured, rest) matrix, its axis
    permutation, each member's Born weight and ``expand(j)``. Masks and kets are scored
    from the family's parse as :func:`st.measure_projective` scores them; targets by
    contraction, the drawn one expanded as its parsed ket."""
    mat, perm = st._as_matrix(state, regs)
    if family.masks or family.kets:
        return mat, perm, *st._scored(mat, family.masks, family.kets)
    targets, tensor = family.targets, mat.reshape(family.dims + (-1,))

    def expand(j):
        (v,) = st._parse_family([br.to_dense(targets[j]).amps], family.dims, False)[1]
        return np.outer(v, v.conj() @ mat)

    amps = (br._contract_target(t, tensor) for t in targets)
    return mat, perm, [float(np.real(np.vdot(a, a))) for a in amps], expand


def _measure_dense(state, regs, family, rng):
    """Any family kind, measured on a dense state: :func:`_scored_dense`, then the
    drawn member expanded."""
    mat, perm, weights, expand = _scored_dense(state, regs, family)
    return st._sample(state, rng, mat, perm, family.rank, weights, expand)


class DenseBackend:
    """Exact dense oracle backend."""

    name = "dense"

    def ghz(self, D: int, N: int) -> DenseState:
        return st.make_uniform_ghz(D, N)

    def from_branches(self, state: BranchState) -> DenseState:
        return br.to_dense(state)

    def attach(self, state: DenseState, dim: int, initial) -> DenseState:
        return DenseState(state.dims + (dim,), np.kron(state.amps, st._initial_vector(dim, initial)))

    def apply_local(self, state, register, U):
        return st.apply_local(state, register, U)

    def apply_pair(self, state, pair, U):
        return st.apply_joint(state, list(pair), U)

    def controlled_shift(self, state, control, target, shifts):
        """Amplitudes move: target label j under control label c goes to j + shifts[c] mod d."""
        st._check_registers([control, target], state.num_registers)
        dc, d = state.dims[control], state.dims[target]
        if len(shifts) != dc:
            raise ValueError("one shift per control label required")
        shifts = np.asarray(shifts, dtype=int)
        t = np.moveaxis(state.tensor(), (control, target), (0, 1))
        t = t[np.arange(dc)[:, None], (np.arange(d) - shifts[:, None]) % d]
        return DenseState(state.dims, np.moveaxis(t, (0, 1), (control, target)).reshape(-1))

    def swap(self, state, i, j):
        st._check_registers([i, j], state.num_registers)
        if state.dims[i] != state.dims[j]:
            raise ValueError("swap requires equal register dimensions")
        return DenseState(state.dims, np.swapaxes(state.tensor(), i, j).reshape(-1))

    def measure_targets(self, state, targets, rng, registers=None):
        return _measure_dense(state, *br._family(state, targets, registers, False), rng)

    def score_targets(self, state, targets, registers=None):
        regs, family = br._family(state, targets, registers, False)
        mat, _, weights, _ = _scored_dense(state, regs, family)
        return weights, family.rank, mat.shape[0]

    def measure_diag(self, state, registers, masks: Sequence[np.ndarray], rng):
        return _measure_dense(state, *br._family(state, masks, registers, True), rng)

    def measure_local_kets(self, state, register, kets, rng):
        return _measure_dense(state, *br._family(state, kets, [register], False), rng)

    def reduced(self, state, keep) -> np.ndarray:
        return st.partial_trace(state, keep).matrix

    def amplitudes(self, state) -> np.ndarray:
        return state.amps

    def drop(self, state, register):
        return st.drop_product_register(state, register)

    def dims(self, state):
        return state.dims

    def project_diag(self, state, registers, mask):
        return st.project(state, registers, mask, diagonal=True)

    def project_ket(self, state, register, ket):
        return st.project(state, [register], ket)

    def target_probability(self, state, target: BranchState) -> float:
        br._check_target(target, state.dims)
        return float(abs(br._contract_target(target, state.tensor())) ** 2)


class BranchBackend:
    """Scalable structured backend."""

    name = "branch"

    def ghz(self, D: int, N: int) -> BranchState:
        return br.ghz_branches(D, N)

    def from_branches(self, state: BranchState) -> BranchState:
        return state

    def attach(self, state, dim, initial):
        return br.attach_register(state, dim, initial)

    def apply_local(self, state, register, U):
        return br.apply_branch_local(state, register, U)

    def apply_pair(self, state, pair, U):
        return br.apply_pair_unitary(state, pair, U)

    def controlled_shift(self, state, control, target, shifts):
        return br.apply_controlled_shift(state, control, target, shifts)

    def swap(self, state, i, j):
        return br.swap_registers(state, i, j)

    def measure_targets(self, state, targets, rng, registers=None):
        return br.branch_measure(state, targets, rng, registers=registers)

    def score_targets(self, state, targets, registers=None):
        return br._scores(state, targets, registers, False)[:3]

    def measure_diag(self, state, registers, masks, rng):
        return br.branch_measure(state, masks, rng, registers=registers, diagonal=True)

    def measure_local_kets(self, state, register, kets, rng):
        return br.branch_measure(state, kets, rng, registers=[register])

    def reduced(self, state, keep) -> np.ndarray:
        return br.branch_partial_trace(state, keep).matrix

    def amplitudes(self, state) -> np.ndarray:
        return br.to_dense(state).amps

    def drop(self, state, register):
        return br.drop_register(state, register)

    def dims(self, state):
        return state.dims

    def project_diag(self, state, registers, mask):
        return br.branch_project(state, registers, mask, diagonal=True)

    def project_ket(self, state, register, ket):
        return br.branch_project(state, [register], ket)

    def target_probability(self, state, target: BranchState) -> float:
        br._check_target(target, state.dims)
        return float(abs(br.branch_inner(target, state)) ** 2)


_BACKENDS = {"dense": DenseBackend(), "branch": BranchBackend()}


def get_backend(name):
    """Resolve a backend by name; backend instances pass through unchanged."""
    if isinstance(name, (DenseBackend, BranchBackend)):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; choose 'dense' or 'branch'") from None
