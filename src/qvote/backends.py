"""Uniform operation surface over the dense and branch state backends.

Protocol code is written once against this surface; measurement targets are
described as :class:`BranchState` values in a checked
:class:`~qvote.branches.MeasurementFamily`. Every dense measurement scores
each member in place (targets by contraction with the amplitudes) and expands
only the drawn member, through :func:`qvote.states._sample`.
Both backends consume randomness through the same inverse-CDF sampler, so a
shared seed yields identical outcome sequences whenever the Born
probabilities agree.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import branches as br
from . import states as st
from .branches import BranchState
from .matrices import shift_matrix, swap_pair_matrix
from .states import DenseState


class DenseBackend:
    """Exact dense oracle backend."""

    name = "dense"

    def ghz(self, D: int, N: int) -> DenseState:
        return st.make_uniform_ghz(D, N)

    def from_branches(self, state: BranchState) -> DenseState:
        return br.to_dense(state)

    def attach(self, state: DenseState, dim: int, initial) -> DenseState:
        if isinstance(initial, (int, np.integer)):
            if not 0 <= int(initial) < dim:
                raise ValueError(f"initial label {initial} out of range for dimension {dim}")
            vec = np.zeros(dim, dtype=complex)
            vec[int(initial)] = 1.0
        else:
            vec = np.asarray(initial, dtype=complex)
        return DenseState(state.dims + (dim,), np.kron(state.amps, vec))

    def apply_local(self, state, register, U):
        return st.apply_local(state, register, U)

    def apply_pair(self, state, pair, U):
        return st.apply_joint(state, list(pair), U)

    def controlled_shift(self, state, control, target, shifts):
        st._check_registers([control, target], state.num_registers)
        dc, dt = state.dims[control], state.dims[target]
        U = np.zeros((dc * dt, dc * dt), dtype=complex)
        for c in range(dc):
            U[c * dt:(c + 1) * dt, c * dt:(c + 1) * dt] = shift_matrix(dt, int(shifts[c]))
        return st.apply_joint(state, [control, target], U)

    def swap(self, state, i, j):
        st._check_registers([i, j], state.num_registers)
        return st.apply_joint(state, [i, j], swap_pair_matrix(state.dims[i]))

    def measure_targets(self, state, targets, rng, registers=None):
        """Targets are scored by contraction with the state, and only the
        drawn one is expanded: parsed as a ket, so its post-state and
        probability are those :func:`st.measure_projective` gives for kets."""
        regs, family = br._family(state, targets, registers, False)
        targets = family.targets
        mat, perm = st._as_matrix(state, regs)
        sdims = tuple(state.dims[r] for r in regs)
        tensor = mat.reshape(sdims + (-1,))
        amps = (br._contract_target(t, tensor) for t in targets)
        weights = [float(np.real(np.vdot(a, a))) for a in amps]

        def expand(j):
            (v,) = st._parse_family([br.to_dense(targets[j]).amps], sdims, False)[1]
            return np.outer(v, v.conj() @ mat)

        return st._sample(state, rng, mat, perm, len(targets), weights, expand)

    def measure_diag(self, state, registers, masks: Sequence[np.ndarray], rng):
        return st.measure_projective(state, list(masks), rng, registers=registers, diagonal=True)

    def measure_local_kets(self, state, register, kets, rng):
        return st.measure_projective(state, list(kets), rng, registers=[register])

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
        if target.dims != state.dims:
            raise ValueError(f"layout mismatch: {target.dims} vs {state.dims}")
        br._check_norm_offset(abs(br._branch_norm_sq(target.dims, target.branches) - 1.0))
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
        amp = br.branch_inner(target, state)  # checks the layout
        br._check_norm_offset(abs(br._branch_norm_sq(target.dims, target.branches) - 1.0))
        return float(abs(amp) ** 2)


_BACKENDS = {"dense": DenseBackend(), "branch": BranchBackend()}


def get_backend(name):
    """Resolve a backend by name; backend instances pass through unchanged."""
    if isinstance(name, (DenseBackend, BranchBackend)):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; choose 'dense' or 'branch'") from None
