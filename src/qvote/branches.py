"""Structured branch representation of correlated ballot states.

Every state the ballot protocols produce is a sum of a few "branches", each a
product of per-register local states. This module keeps that structure
explicit so protocols scale past the dense amplitude budget. The operation
set is deliberately narrow: monomial local unitaries, register attachment and
swaps, label-controlled shifts, two-register unitaries (for the entangling
eavesdropper), diagonal projective measurements, and rank-1 measurements
whose targets are themselves branch states. Anything else must be routed
through the dense backend.

Every factor is local to one register: a basis label, stored as a plain
Python ``int``, or a :class:`VecFactor`. The correlations of the ballot
states sit in the labels alone, so overlaps join branches on their label
rows, and a row that is all labels is its own join key.

An operation that entangles two registers (a pair unitary, or a diagonal
mask over two vector factors) splits each two-register block by the Schmidt
decomposition into one product branch per singular value above 1e-12, at most
the smaller dimension. A pair unitary first sums the blocks of branches that
agree off the pair.

Every measurement form (0/1 masks, diagonal matrices, one-register kets and
branch-state targets, on registers in any order) goes through one parse and
check step and one projection step, which the sampled measurements and the
deterministic projections of the attack models share. The array forms are
parsed and checked by the dense backend's :func:`qvote.states._parse_family`,
and outcomes are drawn by :func:`qvote.states._draw_outcome`, so both
backends accept and reject the same families and sample them alike.

Register conventions and tolerances match :mod:`qvote.states`; states are
compared up to a global phase throughout.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

import numpy as np

from .states import (
    DENSE_AMP_BUDGET,
    NORM_TOL,
    VANISHING_PROB,
    DenseBudgetError,
    DenseState,
    DensityMatrix,
    _check_registers,
    _draw_outcome,
    _kept_dim,
    _parse_family as _parse_arrays,
    check_unitary,
)

_ZERO_TOL = 1e-14


class BranchError(ValueError):
    """Operation would leave the branch representation; use the dense backend."""


class _Frozen:
    """Immutable once constructed: factors are shared between branches and states."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _read_only(amps: np.ndarray) -> np.ndarray:
    view = amps.view()
    view.flags.writeable = False
    return view


class VecFactor(_Frozen):
    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        n = np.linalg.norm(amps)
        if n <= _ZERO_TOL or n > 1.0 + 1e-9:
            raise ValueError(f"local factor norm {n!r} outside (0, 1]")
        object.__setattr__(self, "amps", _read_only(amps))

    def __repr__(self) -> str:
        return f"vec{np.round(self.amps, 3)!r}"


Factor = int | VecFactor
_FACTOR_TYPES = {int, VecFactor}
Branch = tuple[complex, tuple[Factor, ...]]


def _factor_vector(f: Factor, dim: int) -> np.ndarray:
    if isinstance(f, VecFactor):
        return f.amps
    v = np.zeros(dim, dtype=complex)
    v[f] = 1.0
    return v


def _tidy_factor(f: Factor) -> tuple[complex, Factor]:
    """Canonicalize: a one-hot vector becomes its label; weight moves out."""
    if isinstance(f, VecFactor):
        nz = np.flatnonzero(np.abs(f.amps) > _ZERO_TOL)
        if nz.size == 1:
            return complex(f.amps[nz[0]]), int(nz[0])
    return 1.0 + 0.0j, f


def _tidy_row(coeff: complex, factors: tuple[Factor, ...], regs: Sequence[int]) -> Branch:
    """The branch coeff * factors with the factors on ``regs`` (ascending)
    tidied and their weights moved into the coefficient; an already tidy row
    keeps its tuple, so states can share rows."""
    coeff = complex(coeff)
    row = None
    for r in regs:
        w, g = _tidy_factor(factors[r])
        if g is not factors[r]:
            row = row or list(factors)
            row[r] = g
            coeff *= w
    return coeff, factors if row is None else tuple(row)


class BranchState(_Frozen):
    """Superposition of product-form branches over a fixed register layout.

    The public constructor validates and tidies every factor. Operations whose
    output is valid and tidy by construction use :meth:`_trusted` instead.
    """

    __slots__ = ("dims", "branches")

    def __init__(self, dims: Sequence[int], branches: Sequence[Branch], *, renormalize: bool = True):
        dims = tuple(int(d) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"register dimensions must be >= 2, got {dims}")
        cleaned: list[Branch] = []
        for coeff, factors in branches:
            factors = tuple(factors)
            if len(factors) != len(dims):
                raise ValueError("each branch needs one factor slot per register")
            factors = self._validate_factors(factors, dims)
            cleaned.append(_tidy_row(coeff, factors, range(len(dims))))
        self._fill(dims, cleaned)
        if renormalize:
            n = self.norm()
            if abs(n - 1.0) > NORM_TOL:
                raise ValueError(f"branch state norm {n!r} deviates from 1 beyond {NORM_TOL}")
            if n != 1.0:
                object.__setattr__(self, "branches", tuple((c / n, fs) for c, fs in self.branches))

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], branches: Sequence[Branch]) -> BranchState:
        """A state from branches whose factors are already valid and tidy:
        only branches with vanishing coefficients are dropped."""
        state = object.__new__(cls)
        state._fill(dims, branches)
        return state

    def _fill(self, dims: tuple[int, ...], branches: Sequence[Branch]) -> None:
        kept = []
        for c, fs in branches:
            c = complex(c)
            if abs(c) > _ZERO_TOL:
                kept.append((c, fs))
        if not kept:
            raise ValueError("branch state must have at least one branch")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "branches", tuple(kept))

    @staticmethod
    def _validate_factors(factors: tuple[Factor, ...], dims: tuple[int, ...]) -> tuple[Factor, ...]:
        """The row with every integer label (numpy integers and bools too) as
        a Python int; a row that already is one comes back as the same tuple."""
        for r, f in enumerate(factors):
            if isinstance(f, VecFactor):
                if f.amps.size != dims[r]:
                    raise ValueError(f"local factor length mismatch on register {r}")
            elif not isinstance(f, (int, np.integer)):
                raise TypeError(f"unknown factor type {type(f)!r}")
            elif not 0 <= f < dims[r]:
                raise ValueError(f"basis label {f} out of range for register {r}")
        if set(map(type, factors)) <= _FACTOR_TYPES:
            return factors
        return tuple(f if isinstance(f, VecFactor) else int(f) for f in factors)

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.sqrt(max(0.0, np.real(branch_inner(self, self)))))

    def __repr__(self) -> str:
        return f"BranchState(dims={self.dims}, branches={len(self.branches)})"


# ---------------------------------------------------------------------------
# construction helpers


_FAMILY_CACHE = 512  # states; holds every readout family of a D = 49 round and more


def _check_ghz(D: int, N: int) -> None:
    if D < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {D}")
    if N < 1:
        raise ValueError(f"register count must be >= 1, got {N}")


@lru_cache(maxsize=64)
def _ghz_rows(D: int, N: int) -> tuple[tuple[int, ...], ...]:
    """The label row (j,) * N of each label j, shared by every state built
    on it: a family of D phase-GHZ states holds D rows rather than D * D."""
    _check_ghz(D, N)
    return tuple((j,) * N for j in range(D))


def ghz_branches(D: int, N: int) -> BranchState:
    """The uniform correlated ballot state as D basis branches."""
    rows = _ghz_rows(D, N)
    c = 1.0 / np.sqrt(D)
    return BranchState((D,) * N, [(c, row) for row in rows])


@lru_cache(maxsize=_FAMILY_CACHE)
def phase_ghz(D: int, N: int, theta: float) -> BranchState:
    """(1/sqrt(D)) sum_j e^{i j theta} |j>^(x N).

    Cached by value, as the readout families are the same every round; the
    state is immutable, so callers share it.
    """
    rows = _ghz_rows(D, N)
    c = 1.0 / np.sqrt(D)
    return BranchState((D,) * N, [(c * np.exp(1j * j * theta), row) for j, row in enumerate(rows)])


def shifted_ghz(D: int, offsets: Sequence[int]) -> BranchState:
    """(1/sqrt(D)) sum_j |j+o_0> |j+o_1> ... with per-register offsets mod D,
    cached by value as :func:`phase_ghz` is."""
    return _shifted_ghz(D, tuple(int(o) for o in offsets))


@lru_cache(maxsize=_FAMILY_CACHE)
def _shifted_ghz(D: int, offsets: tuple[int, ...]) -> BranchState:
    _check_ghz(D, len(offsets))
    c = 1.0 / np.sqrt(D)
    return BranchState(
        (D,) * len(offsets),
        [(c, tuple((j + o) % D for o in offsets)) for j in range(D)],
    )


def tensor_branches(a: BranchState, b: BranchState) -> BranchState:
    """Product of two branch states on disjoint register groups (a's first)."""
    branches = [(ca * cb, fa + fb) for ca, fa in a.branches for cb, fb in b.branches]
    return BranchState._trusted(a.dims + b.dims, branches)


# ---------------------------------------------------------------------------
# overlap machinery


def _block_vector(
    factors: tuple[Factor, ...], regs: Sequence[int], dims: tuple[int, ...], coeff: complex = 1.0 + 0.0j
) -> np.ndarray:
    """coeff times a branch's factors expanded over ``regs``, one axis each, in that order."""
    arr = np.asarray(coeff)
    for r in regs:
        arr = np.multiply.outer(arr, _factor_vector(factors[r], dims[r]))
    return arr


def _pair_overlap(fa: tuple[Factor, ...], fb: tuple[Factor, ...], regs: Sequence[int]) -> complex:
    """<fa|fb> restricted to ``regs``."""
    out = 1.0 + 0.0j
    for r in regs:
        a, b = fa[r], fb[r]
        if type(a) is int and type(b) is int:
            if a != b:
                return 0.0
        elif type(a) is int:
            out *= b.amps[a]
        elif type(b) is int:
            out *= np.conj(a.amps[b])
        else:
            out *= np.vdot(a.amps, b.amps)
        if out == 0.0:
            return 0.0
    return complex(out)


_ALL_BASIS = {int}
_JOIN_MIN_PAIRS = 32  # branch pairs; measured break-even on 4-register states


def _join_key(dims: tuple[int, ...], *sides: Sequence[Branch]) -> tuple[list[int], list[int]]:
    """Split the registers into the join key, those holding a label on
    every branch of every side, and the rest."""
    key = list(range(len(dims)))
    for side in sides:
        for _, fs in side:
            if set(map(type, fs)) != _ALL_BASIS:
                key = [r for r in key if type(fs[r]) is int]
    keyed = set(key)
    return key, [r for r in range(len(dims)) if r not in keyed]


def _labels(factors: tuple[Factor, ...], key: list[int]) -> tuple[int, ...]:
    """The labels on the key registers; a key over every register is the row itself."""
    if not key:
        return ()
    if len(key) == len(factors):
        return factors
    return tuple([factors[r] for r in key])


def _inners(
    dims: tuple[int, ...], bras: Sequence[Sequence[Branch]], ket: Sequence[Branch]
) -> list[complex]:
    """<bra|ket> for each bra: the sum over branch pairs of
    conj(c_bra) c_ket <bra factors|ket factors>.

    Pairs whose key labels differ overlap to 0, so the ket branches are
    bucketed once by key labels and only matching pairs are overlapped, over
    the rest of the registers. An empty key matches every pair; it is used
    below ``_JOIN_MIN_PAIRS``, where finding the key costs more than it saves.
    """
    if len(ket) * sum(map(len, bras)) < _JOIN_MIN_PAIRS:
        key, rest = [], range(len(dims))
    else:
        key, rest = _join_key(dims, ket, *bras)
    buckets: dict[tuple[int, ...], list[Branch]] = {}
    for b in ket:
        buckets.setdefault(_labels(b[1], key), []).append(b)
    out = []
    for bra in bras:
        total = 0.0 + 0.0j
        for ca, fa in bra:
            for cb, fb in buckets.get(_labels(fa, key), ()):
                if not rest:
                    total += np.conj(ca) * cb
                    continue
                ov = _pair_overlap(fa, fb, rest)
                if ov != 0.0:
                    total += np.conj(ca) * cb * ov
        out.append(complex(total))
    return out


def _check_orthonormal(dims: tuple[int, ...], targets: Sequence[BranchState]) -> None:
    """Raise unless the targets are orthonormal, from one Gram matrix over the
    label join: targets as rows, distinct key-label rows as columns."""
    sides = [t.branches for t in targets]
    key, rest = _join_key(dims, *sides)
    cols: dict[tuple[int, ...], list[tuple[int, complex, tuple[Factor, ...]]]] = {}
    for i, side in enumerate(sides):
        for c, fs in side:
            cols.setdefault(_labels(fs, key), []).append((i, c, fs))
    if rest:
        gram = np.zeros((len(sides), len(sides)), dtype=complex)
        for col in cols.values():
            for i, ca, fa in col:
                for j, cb, fb in col:
                    if i <= j:
                        gram[i, j] += np.conj(ca) * cb * _pair_overlap(fa, fb, rest)
    else:
        coeffs = np.zeros((len(sides), len(cols)), dtype=complex)
        for k, col in enumerate(cols.values()):
            for i, c, _ in col:
                coeffs[i, k] += c
        gram = coeffs.conj() @ coeffs.T
    gram.flat[:: len(sides) + 1] -= 1.0  # the deviation from the identity
    if np.max(np.abs(gram)) > NORM_TOL:
        if np.max(np.abs(np.triu(gram, 1))) > NORM_TOL:
            raise ValueError("measurement targets are not mutually orthogonal")
        _check_norm_offset(np.max(np.abs(np.diagonal(gram))))


def _check_norm_offset(off: float) -> None:
    """Raise unless a target's squared norm is off from 1 by at most ``NORM_TOL``."""
    if off > NORM_TOL:
        raise ValueError(f"measurement targets must be normalized (squared norm off by {off:.3e})")


def branch_inner(a: BranchState, b: BranchState) -> complex:
    """Full inner product <a|b> including all cross terms."""
    if a.dims != b.dims:
        raise ValueError(f"layout mismatch: {a.dims} vs {b.dims}")
    return _inners(a.dims, [a.branches], b.branches)[0]


# ---------------------------------------------------------------------------
# dense bridge


def to_dense(state: BranchState) -> DenseState:
    """Exact expansion into the dense backend (one-way): each branch is
    scattered into the slice of its basis labels, expanded over its vector
    factors only."""
    total = 1
    for d in state.dims:
        total *= d
        if total > DENSE_AMP_BUDGET:
            raise DenseBudgetError(
                f"branch state with dims {state.dims} exceeds the dense amplitude budget"
            )
    out = np.zeros(state.dims, dtype=complex)
    for coeff, factors in state.branches:
        vec = [r for r, f in enumerate(factors) if isinstance(f, VecFactor)]
        out[_slice(factors)] += _block_vector(factors, vec, state.dims, coeff)
    return DenseState(state.dims, out.reshape(-1))


def _slice(factors: tuple[Factor, ...]) -> tuple[int | slice, ...]:
    """Index of a branch in a tensor with one axis per register: its label on
    each label slot, the whole axis on each vector factor."""
    return tuple(slice(None) if isinstance(f, VecFactor) else f for f in factors)


def _contract_target(target: BranchState, tensor: np.ndarray) -> np.ndarray:
    """<target| contracted with the leading axes of ``tensor``, one per target
    register: per branch a gather of its basis labels, a contraction of each
    vector axis with the conjugated amplitudes, and the weight conj(c)."""
    out = np.zeros(tensor.shape[target.num_registers:], dtype=complex)
    for coeff, factors in target.branches:
        block = tensor[_slice(factors)]
        for f in factors:
            if isinstance(f, VecFactor):
                block = np.tensordot(f.amps.conj(), block, axes=(0, 0))
        out += np.conj(coeff) * block
    return out


# ---------------------------------------------------------------------------
# unitary-type operations


def _monomial_parts(U: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Decompose U = permutation * phases; None when U is not monomial."""
    d = U.shape[0]
    nz = np.abs(U) > 1e-12
    if np.any(nz.sum(axis=0) != 1):
        return None
    perm = nz.argmax(axis=0)
    if len(set(perm.tolist())) != d:
        return None
    return perm, U[perm, np.arange(d)]


def apply_branch_local(state: BranchState, register: int, U: np.ndarray) -> BranchState:
    """Apply a single-register unitary branchwise.

    Monomial unitaries keep labels as labels; anything else promotes the
    touched factor to a small local vector.
    """
    _check_registers([register], state.num_registers)
    U = check_unitary(U, state.dims[register])
    mono = _monomial_parts(U)
    branches = []
    for coeff, factors in state.branches:
        f = factors[register]
        new = list(factors)
        if mono is not None and type(f) is int:
            perm, phases = mono
            new[register] = int(perm[f])
            branches.append((coeff * phases[f], tuple(new)))
        else:
            new[register] = VecFactor(U @ f.amps if isinstance(f, VecFactor) else U[:, f])
            branches.append(_tidy_row(coeff, tuple(new), [register]))
    return BranchState._trusted(state.dims, branches)


def attach_register(state: BranchState, dim: int, initial: int | np.ndarray) -> BranchState:
    """Extend the layout by a fresh register in the same state on every branch."""
    if dim < 2:
        raise ValueError(f"register dimensions must be >= 2, got {dim}")
    if not state.branches:
        raise ValueError("cannot attach to an empty branch state")
    if isinstance(initial, (int, np.integer)):
        if not 0 <= int(initial) < dim:
            raise ValueError(f"initial label {initial} out of range for dimension {dim}")
        w, f = 1.0 + 0.0j, int(initial)
    else:
        amps = np.asarray(initial, dtype=complex).reshape(-1)
        if amps.size != dim:
            raise ValueError("initial vector length does not match the register dimension")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("attached register state must be normalized")
        w, f = _tidy_factor(VecFactor(amps))
    branches = [(c * w, fs + (f,)) for c, fs in state.branches]
    return BranchState._trusted(state.dims + (int(dim),), branches)


def swap_registers(state: BranchState, i: int, j: int) -> BranchState:
    """Exchange two equal-dimension registers (branchwise factor swap)."""
    _check_registers([i, j], state.num_registers)
    if state.dims[i] != state.dims[j]:
        raise ValueError("swap requires equal register dimensions")
    branches = []
    for coeff, factors in state.branches:
        new = list(factors)
        new[i], new[j] = factors[j], factors[i]
        branches.append((coeff, tuple(new)))
    return BranchState._trusted(state.dims, branches)


def apply_controlled_shift(
    state: BranchState, control: int, target: int, shifts: Sequence[int]
) -> BranchState:
    """Cyclic-shift the target register by an amount selected by the control label.

    The control must hold a label on every branch (true throughout the
    ballot protocols, whose correlations live in the branch labels).
    """
    _check_registers([control, target], state.num_registers)
    d = state.dims[target]
    if len(shifts) != state.dims[control]:
        raise ValueError("one shift per control label required")
    branches = []
    for coeff, factors in state.branches:
        c = factors[control]
        if type(c) is not int:
            raise BranchError("controlled shift requires a basis-factor control register")
        s = int(shifts[c]) % d
        f = factors[target]
        new = list(factors)
        if type(f) is int:
            new[target] = (f + s) % d
        else:
            new[target] = VecFactor(np.roll(f.amps, s))  # as tidy as f
        branches.append((coeff, tuple(new)))
    return BranchState._trusted(state.dims, branches)


def _row_key(factors: tuple[Factor, ...], regs: Sequence[int]) -> tuple:
    """What identifies a branch's factors on ``regs``: labels and vector
    amplitude bytes."""
    return tuple(f if type(f) is int else f.amps.tobytes() for f in map(factors.__getitem__, regs))


def _merge_rows(branches: Sequence[Branch]) -> list[Branch]:
    """Sum the coefficients of branches with equal factor rows, in first-seen order."""
    rows: dict[tuple, Branch] = {}
    for c, fs in branches:
        key = _row_key(fs, range(len(fs)))
        rows[key] = (rows[key][0] + c, fs) if key in rows else (c, fs)
    return list(rows.values())


def _schmidt_split(
    coeff: complex, factors: tuple[Factor, ...], pair: tuple[int, int], block: np.ndarray
) -> list[Branch]:
    """coeff times ``block`` (axes in ``pair`` order) in place of the pair's
    factors, as one product branch per singular value above 1e-12, largest first."""
    u, s, vh = np.linalg.svd(block)
    out = []
    for k in np.flatnonzero(s > 1e-12):
        new = list(factors)
        new[pair[0]] = VecFactor(u[:, k])
        new[pair[1]] = VecFactor(vh[k])
        out.append(_tidy_row(coeff * s[k], tuple(new), sorted(pair)))
    return out


def apply_pair_unitary(state: BranchState, pair: tuple[int, int], U: np.ndarray) -> BranchState:
    """Apply a joint unitary on two registers; ``U`` acts on the tensor space
    ordered as ``pair``.

    This is the two-register operation of the entangling eavesdropper.
    Branches whose factors agree off the pair (by label or amplitude bytes)
    are summed into one two-register block, and each block becomes as many
    product branches as its Schmidt rank.
    """
    i, j = _check_registers(pair, state.num_registers)
    di, dj = state.dims[i], state.dims[j]
    U = check_unitary(U, di * dj)
    lo, hi = min(i, j), max(i, j)
    off = [r for r in range(state.num_registers) if r != i and r != j]
    groups: dict[tuple, list[Branch]] = {}
    for b in state.branches:
        groups.setdefault(_row_key(b[1], off), []).append(b)

    def block(fs):
        return (U @ np.kron(_factor_vector(fs[i], di), _factor_vector(fs[j], dj))).reshape(di, dj)

    branches = []
    for (coeff, factors), *others in groups.values():
        out = block(factors)
        if others:  # a lone branch is split unscaled: its factors ignore its coefficient
            out, coeff = coeff * out + sum(c * block(fs) for c, fs in others), 1.0
        branches.extend(_schmidt_split(coeff, factors, (lo, hi), out if i < j else out.T))
    return BranchState._trusted(state.dims, branches)


def drop_register(state: BranchState, register: int) -> BranchState:
    """Remove a register whose factor is identical on every branch."""
    _check_registers([register], state.num_registers)
    if state.num_registers == 1:
        raise ValueError("cannot drop the only register")
    d = state.dims[register]
    ref_vec = _factor_vector(state.branches[0][1][register], d)
    for _, factors in state.branches:
        if np.max(np.abs(_factor_vector(factors[register], d) - ref_vec)) > 1e-10:
            raise BranchError(f"register {register} is correlated across branches; cannot drop")
    scale = np.linalg.norm(ref_vec)
    branches = [
        (c * scale, tuple(f for r, f in enumerate(fs) if r != register))
        for c, fs in state.branches
    ]
    dims = tuple(d for r, d in enumerate(state.dims) if r != register)
    return BranchState._trusted(dims, branches)


# ---------------------------------------------------------------------------
# reduced density matrices


def branch_partial_trace(state: BranchState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the kept registers (in the order given): the
    sum over branch pairs (a, b) of c_a conj(c_b) <b|a>_traced |a_kept><b_kept|."""
    keep, _ = _kept_dim(keep, state.dims)
    traced = [r for r in range(state.num_registers) if r not in keep]
    factors = [fs for _, fs in state.branches]
    coeffs = np.array([c for c, _ in state.branches])
    overlaps = np.array([[_pair_overlap(fb, fa, traced) for fb in factors] for fa in factors])
    weights = coeffs[:, None] * coeffs.conj()[None, :] * overlaps
    kept = np.array([_block_vector(fs, keep, state.dims).reshape(-1) for fs in factors])
    return DensityMatrix(kept.T @ weights @ kept.conj())


# ---------------------------------------------------------------------------
# measurement


def _apply_diag_mask(state: BranchState, regs: list[int], mask: np.ndarray) -> list[Branch]:
    """Project branchwise with a diagonal (computational-basis) 0/1 mask."""
    out: list[Branch] = []
    for coeff, factors in state.branches:
        sub = mask
        free: list[int] = []
        for r in regs:
            f = factors[r]
            if type(f) is int:
                sub = np.take(sub, f, axis=len(free))
            else:
                free.append(r)
        # ``sub`` now has one axis per free register, in their order within regs.
        if not free:
            w = complex(sub)
            if abs(w) > _ZERO_TOL:
                out.append((coeff * w, factors))
        elif len(free) == 1:
            r = free[0]
            on = np.flatnonzero(sub)
            if on.size == 1:  # one label passes: the factor becomes that label
                a = factors[r].amps[on[0]]
                if abs(a) > _ZERO_TOL:
                    new = list(factors)
                    new[r] = int(on[0])
                    out.append((complex(coeff) * complex(a), tuple(new)))
                continue
            amps = factors[r].amps * np.asarray(sub, dtype=complex).reshape(-1)
            if np.linalg.norm(amps) <= _ZERO_TOL:
                continue
            new = list(factors)
            new[r] = VecFactor(amps)
            out.append(_tidy_row(coeff, tuple(new), [r]))
        elif len(free) == 2:
            p, q = free
            block = np.multiply.outer(factors[p].amps, factors[q].amps) * sub
            out.extend(_schmidt_split(coeff, factors, (p, q), block))
        else:
            raise BranchError("diagonal projection couples more than two non-basis "
                              "registers; use the dense backend")
    return out


def _collapse_onto(
    state: BranchState, target: BranchState, regs: list[int], rest: list[int]
) -> list[Branch]:
    """Branches of <target|_regs |state>, a state over the ``rest`` registers."""
    out: list[Branch] = []
    for tc, tf in target.branches:
        tvecs = [_factor_vector(f, d) for f, d in zip(tf, target.dims)]
        for c, factors in state.branches:
            scal = np.conj(tc) * c
            for tvec, r in zip(tvecs, regs):
                f = factors[r]
                if type(f) is int:
                    scal *= np.conj(tvec[f])
                else:
                    scal *= np.vdot(tvec, f.amps)
                if scal == 0.0:
                    break
            if abs(scal) > _ZERO_TOL:
                out.append((scal, tuple(factors[r] for r in rest)))
    return out


def _branch_norm_sq(dims: tuple[int, ...], branches: list[Branch]) -> float:
    return max(0.0, _inners(dims, [branches], branches)[0].real)


def _parse_family(
    state: BranchState | DenseState, projectors: Sequence, registers: Sequence[int] | None, diagonal: bool
) -> tuple[list[int], list[np.ndarray], list[BranchState]]:
    """Check a projector family on ``registers`` (all when None) of a state
    of either backend and return the registers with the family as 0/1 masks
    or as rank-1 targets.

    A family of :class:`BranchState` targets is checked here, by layout and
    one Gram matrix against the identity. Every other family goes through the
    dense backend's parse and check, and its kets become one-register targets.
    """
    n_regs = state.num_registers
    regs = _check_registers(range(n_regs) if registers is None else registers, n_regs)
    sdims = tuple(state.dims[r] for r in regs)
    if diagonal or len(projectors) == 0 or not all(isinstance(P, BranchState) for P in projectors):
        masks, kets = _parse_arrays(projectors, sdims, diagonal)
        if kets and len(regs) != 1:
            raise BranchError("raw kets are only supported on a single register; "
                              "pass a BranchState for multi-register targets")
        targets = [BranchState(sdims, [(1.0, (VecFactor(k),))], renormalize=False) for k in kets]
        return regs, masks, targets
    if any(P.dims != sdims for P in projectors):
        raise ValueError("target state layout does not match the measured registers")
    _check_orthonormal(sdims, projectors)
    return regs, [], list(projectors)


def _project(
    state: BranchState, regs: list[int], masks: list[np.ndarray], targets: list[BranchState]
) -> tuple[list[float], Callable[[int, float], list[Branch]]]:
    """Born weight of each projector of a checked family, and ``post(k, n)``:
    outcome k's post-state branches in the state's register order, divided by n.

    A full-register family is scored by one label join over the state's
    factors permuted into the measured order; a subset family collapses the
    state onto each target and keeps the target's factors in their slots.
    """
    if masks:
        projected = [_apply_diag_mask(state, regs, m) for m in masks]
        probs = [_branch_norm_sq(state.dims, br) for br in projected]
        return probs, lambda k, n: [(c / n, fs) for c, fs in projected[k]]
    if len(regs) == state.num_registers:
        ket = state.branches
        if regs != sorted(regs):
            ket = [(c, tuple(fs[r] for r in regs)) for c, fs in ket]
        sdims = tuple(state.dims[r] for r in regs)
        amps = _inners(sdims, [t.branches for t in targets], ket)
        slots = np.argsort(regs)
        return [float(abs(a) ** 2) for a in amps], lambda k, n: [
            ((amps[k] * c) / n, tuple(tf[i] for i in slots)) for c, tf in targets[k].branches
        ]
    rest = [r for r in range(state.num_registers) if r not in regs]
    rdims = tuple(state.dims[r] for r in rest)
    chis = [_collapse_onto(state, t, regs, rest) for t in targets]
    slots = np.argsort(regs + rest)
    return [_branch_norm_sq(rdims, chi) for chi in chis], lambda k, n: [
        (tc * (c / n), tuple((tf + rf)[i] for i in slots))
        for tc, tf in targets[k].branches
        for c, rf in chis[k]
    ]


def branch_measure(
    state: BranchState,
    projectors: Sequence[np.ndarray | BranchState],
    rng: np.random.Generator,
    registers: Sequence[int] | None = None,
    *,
    diagonal: bool = False,
) -> tuple[int, BranchState | None, float]:
    """Born-rule measurement restricted to branch-representable projectors.

    Supported projector forms, acting on ``registers`` (all when None, in
    any order):

    * square arrays that are diagonal in the computational basis (0/1);
    * with ``diagonal=True``, their diagonals: 0/1 masks of the measured
      registers' dims (or flat);
    * 1-D kets when a single register is measured;
    * :class:`BranchState` targets (rank-1 onto a correlated state).

    Projectors must be mutually orthogonal; when they do not resolve the
    identity a remainder outcome with index ``len(projectors)`` is
    synthesized. Its post-state is the state's branches minus every projected
    branch, with the coefficients of equal factor rows summed, so it may
    exceed the usual branch count; it is None if it cannot be normalized.
    """
    regs, masks, targets = _parse_family(state, projectors, registers, diagonal)
    probs, post = _project(state, regs, masks, targets)
    rank = sum(map(np.sum, masks)) + len(targets)
    k = _draw_outcome(probs, rank, int(np.prod([state.dims[r] for r in regs])), rng)
    if k < len(probs):
        return k, BranchState._trusted(state.dims, post(k, np.sqrt(probs[k]))), probs[k]
    remainder = 1.0 - float(sum(probs))
    projected = [(-c, fs) for j in range(len(probs)) for c, fs in post(j, 1.0)]
    left = _merge_rows(list(state.branches) + projected)
    n2 = _branch_norm_sq(state.dims, left)
    if n2 <= _ZERO_TOL:
        return k, None, remainder
    n = np.sqrt(n2)
    return k, BranchState._trusted(state.dims, [(c / n, fs) for c, fs in left]), remainder


def branch_project(
    state: BranchState, registers: Sequence[int], projector, *, diagonal: bool = False
) -> tuple[float, BranchState | None]:
    """Deterministic projection onto one projector of any :func:`branch_measure`
    form: (probability, normalized post-state or None when it vanishes)."""
    regs, masks, targets = _parse_family(state, [projector], registers, diagonal)
    probs, post = _project(state, regs, masks, targets)
    p = probs[0]
    if p <= VANISHING_PROB:
        return p, None
    return p, BranchState._trusted(state.dims, post(0, np.sqrt(p)))
