"""Structured branch representation of correlated ballot states.

Every state the ballot protocols produce is a sum of a few "branches", each a
product of per-register local states. This module keeps that structure
explicit so protocols scale past the dense amplitude budget. The operation
set is deliberately narrow: local unitaries (a :class:`qvote.states.LocalOp`,
checked once; a monomial one keeps labels as labels), register attachment and
swaps, label-controlled shifts, two-register unitaries (for the entangling
eavesdropper), diagonal projective measurements, and rank-1 measurements
whose targets are themselves branch states. Anything else must be routed
through the dense backend. The ballot and its tally targets come from one
GHZ builder, cached by value: valid by construction, it skips the factor
checks and renormalizes as the public constructor does.

Every factor is local to one register: a basis label (a plain ``int``) or a
:class:`VecFactor`. The ballot correlations sit in the labels, so overlaps
join branches on their label rows; a vector object that every row shares (an
announced register) is overlapped once per join, not once per branch pair.
A target family finds its join when its Gram check runs, and keeps it, so a
measurement walks the state once: O(B·N) hashing. Every family is then scored
by one pair loop over the matched rows; the unrecorded honest ballots of
:mod:`qvote.protocols` and the anti-cheat rounds never reach it, because they
are played in the label frame (D coefficients and one label row per register).

An operation that entangles two registers (a pair unitary, or a diagonal
mask over two vector factors) splits each two-register block by the Schmidt
decomposition into one product branch per singular value above 1e-12, at most
the smaller dimension. A pair unitary first sums the blocks of branches that
agree off the pair.

Every measurement form (0/1 masks, diagonal matrices, one-register kets and
branch-state targets, on registers in any order) is checked once, when a
:class:`MeasurementFamily` is built from it (the protocols' per-round families
are cached by size), and goes through one projection step, which the sampled
measurements and the attack models' deterministic projections share; a mask
family takes one pass over the branches. Array forms are parsed and checked by
:func:`qvote.states._parse_family`, and outcomes drawn by
:func:`qvote.states._draw_outcome`, so both backends accept and reject the
same families and sample them alike.

Register conventions and tolerances match :mod:`qvote.states`; states are
compared up to a global phase throughout.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from itertools import chain

import numpy as np

from .matrices import fourier_basis_kets
from .states import (
    NORM_TOL,
    VANISHING_PROB,
    DenseState,
    DensityMatrix,
    LocalOp,
    _check_dims,
    _check_ghz,
    _check_registers,
    _draw_outcome,
    _Frozen,
    _initial_vector,
    _integers,
    _kept_dim,
    _parse_family as _parse_arrays,
    identity_perm,
)

_ZERO_TOL = 1e-14


class BranchError(ValueError):
    """Operation would leave the branch representation; use the dense backend."""


def _read_only(amps: np.ndarray) -> np.ndarray:
    view = amps.view()
    view.flags.writeable = False
    return view


class VecFactor(_Frozen):
    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        n = np.linalg.norm(amps)
        if not _ZERO_TOL < n <= 1.0 + 1e-9:  # NaN fails too
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
    ``_unit``: :meth:`_renormalized` checked the norm and divided it out.
    """

    __slots__ = ("dims", "branches", "_unit")

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
            self._renormalized()

    @classmethod
    def _trusted(cls, dims: tuple[int, ...], branches: Sequence[Branch]) -> BranchState:
        """A state from branches whose factors are already valid and tidy:
        only branches with vanishing coefficients are dropped."""
        state = object.__new__(cls)
        state._fill(dims, branches)
        return state

    def _renormalized(self) -> BranchState:
        """Divide by the norm, which must be 1 within ``NORM_TOL``, so float drift never compounds."""
        n = self.norm()
        if not abs(n - 1.0) <= NORM_TOL:
            raise ValueError(f"branch state norm {n!r} deviates from 1 beyond {NORM_TOL}")
        if n != 1.0:
            object.__setattr__(self, "branches", tuple((c / n, fs) for c, fs in self.branches))
        object.__setattr__(self, "_unit", True)
        return self

    def _fill(self, dims: tuple[int, ...], branches: Sequence[Branch]) -> None:
        kept = []
        for c, fs in branches:
            c = complex(c)
            if not abs(c) <= _ZERO_TOL:  # a NaN is kept, so the norm check sees it
                kept.append((c, fs))
        if not kept:
            raise ValueError("branch state must have at least one branch")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "branches", tuple(kept))
        object.__setattr__(self, "_unit", False)

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
        return float(np.sqrt(max(np.real(branch_inner(self, self)), 0.0)))  # NaN stays NaN

    def __repr__(self) -> str:
        return f"BranchState(dims={self.dims}, branches={len(self.branches)})"


# ---------------------------------------------------------------------------
# construction helpers


_FAMILY_CACHE = 512  # states; holds every readout family of a D = 49 round and more


@lru_cache(maxsize=_FAMILY_CACHE)  # as many as _ghz: a cached state's rows stay the ones a new one gets
def _ghz_rows(D: int, N: int) -> tuple[tuple[int, ...], ...]:
    """The label row (j,) * N of each label j, shared by every state built
    on it: a family of D phase-GHZ states holds D rows rather than D * D."""
    _check_ghz(D, N)
    return tuple((j,) * N for j in range(D))


@lru_cache(maxsize=_FAMILY_CACHE)
def _ghz(D: int, offsets: tuple[int, ...], theta: float) -> BranchState:
    """(1/sqrt(D)) sum_j e^{i j theta} |j+o_0> |j+o_1> ... with offsets mod D:
    the ballot and every tally target. Label rows are valid by construction,
    so the state is built unchecked and renormalized as the constructor does.
    Cached by value; the state is immutable, so callers share it."""
    N = len(offsets)
    rows = _ghz_rows(D, N)  # checks D and N
    if any(offsets):
        rows = [tuple((j + o) % D for o in offsets) for j in range(D)]
    c = 1.0 / np.sqrt(D)
    branches = [(c * np.exp(1j * j * theta), row) for j, row in enumerate(rows)]
    return BranchState._trusted((D,) * N, branches)._renormalized()


def ghz_branches(D: int, N: int) -> BranchState:
    """The uniform correlated ballot state as D basis branches."""
    D, N = _check_ghz(D, N)
    return _ghz(D, (0,) * N, 0.0)


def phase_ghz(D: int, N: int, theta: float) -> BranchState:
    """(1/sqrt(D)) sum_j e^{i j theta} |j>^(x N), a tally target."""
    D, N = _check_ghz(D, N)
    return _ghz(D, (0,) * N, theta)


def shifted_ghz(D: int, offsets: Sequence[int]) -> BranchState:
    """(1/sqrt(D)) sum_j |j+o_0> |j+o_1> ... with per-register integer offsets mod D."""
    offsets = tuple(_integers(offsets, "GHZ offsets"))
    return _ghz(_check_ghz(D, len(offsets))[0], offsets, 0.0)


@lru_cache(maxsize=64, typed=True)  # typed: 4.0 or True is checked and refused, not served 4 or 1
def phase_family(D: int, N: int, step: int = 1) -> MeasurementFamily:
    """``phase_ghz(D, N, 2 pi q / D)`` for q = 0, step, 2 step, ... below D, the
    tally (step 1) and anti-cheat readout families, checked once and cached. The
    family is marked with its ``step``, so a label-diagonal state can be scored
    by its Fourier transform instead."""
    D, N = _check_ghz(D, N)
    if (step := _integers((step,), "readout steps")[0]) < 1:
        raise ValueError(f"readout step must be >= 1, got {step}")
    family = MeasurementFamily((D,) * N, [phase_ghz(D, N, 2 * np.pi * q / D) for q in range(0, D, step)])
    object.__setattr__(family, "step", step)
    return family


@lru_cache(maxsize=64, typed=True)
def shift_family(D: int) -> MeasurementFamily:
    """The two-register tally family ``shifted_ghz(D, (0, m))``, m in [0, D), cached."""
    D, _ = _check_ghz(D, 2)
    return _mark_monomial(MeasurementFamily((D, D), [shifted_ghz(D, (0, m)) for m in range(D)]))


def _mark_monomial(family: MeasurementFamily) -> MeasurementFamily:
    """Mark a family whose targets hold only labels with its join inverted, each label
    row's (member, conj(coefficient)) pairs; one with a vector factor stays unmarked."""
    _, rest, _, rows = family.join
    if not rest:
        table: dict[tuple[int, ...], list[tuple[int, complex]]] = {}
        for t, bra in enumerate(rows):
            for cc, _, fs in bra:
                table.setdefault(fs, []).append((t, complex(cc)))
        object.__setattr__(family, "monomial", table)
    return family


@lru_cache(maxsize=64, typed=True)
def fourier_family(D: int) -> MeasurementFamily:
    """The one-register Fourier-conjugate kets of the announcements, checked once and cached."""
    D, _ = _check_ghz(D, 1)
    return MeasurementFamily((D,), fourier_basis_kets(D))


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


def _join_key(dims: tuple[int, ...], *sides: Sequence[Branch]) -> tuple[list[int], ...]:
    """One walk over the registers of every side's rows: the join key, the registers
    that hold a label on every row; the rest, ascending; and the free registers of
    the rest, those that do not hold one and the same vector object on every row."""
    unique = {id(side): side for side in sides}.values()  # a norm's two sides are one
    key, rest, free = [], [], []
    for r, column in enumerate(zip(*(fs for side in unique for _, fs in side))):
        if _ALL_BASIS.issuperset(map(type, column)):
            key.append(r)
        else:
            rest.append(r)
            if column.count(column[0]) != len(column):  # a vector has no equality but itself
                free.append(r)
    return key, rest, free


def _labels(factors: tuple[Factor, ...], key: list[int]) -> tuple[int, ...]:
    """The labels on the key registers; a key over every register is the row itself."""
    if len(key) == len(factors):
        return factors
    return tuple([factors[r] for r in key])


def _inners(
    dims: tuple[int, ...], bras: Sequence[Sequence[Branch]], ket: Sequence[Branch]
) -> list[complex]:
    """<bra|ket> for each bra, the ket branches bucketed by their key labels (see
    :func:`_pair_sums`). Below ``_JOIN_MIN_PAIRS``, where finding the key costs more
    than it saves, every pair matches. With no free register (see :func:`_join_key`),
    all matched pairs share one overlap."""
    if len(ket) * sum(map(len, bras)) < _JOIN_MIN_PAIRS:
        bras = [[(np.conj(c), (), fs) for c, fs in bra] for bra in bras]
        return _pair_sums(bras, {(): ket}, range(len(dims)))
    key, rest, free = _join_key(dims, ket, *bras)
    shared = None if free or not rest else _pair_overlap(ket[0][1], ket[0][1], rest)
    hits: dict[tuple[int, ...], list[Branch]] = {}
    for b in ket:
        hits.setdefault(_labels(b[1], key), []).append(b)
    return _pair_sums([[(np.conj(c), _labels(fs, key), fs) for c, fs in bra] for bra in bras],
                      hits, rest, shared)


def _pair_sums(bras: list[list[tuple]], hits: dict, rest: Sequence[int], shared=None) -> list[complex]:
    """Every join's sums, in one order: for each bra of (conj(c), bucket, factors) rows, the sum
    over them and the ket branches ``hits[bucket]`` of conj(c_bra) c_ket <bra|ket> on ``rest``."""
    out = []
    for bra in bras:
        total = 0.0 + 0.0j
        for ca, u, fa in bra:
            if u not in hits:  # no call per row: a family walks D^2 of them
                continue
            for cb, fb in hits[u]:
                if not rest:
                    total += ca * cb
                    continue
                ov = _pair_overlap(fa, fb, rest) if shared is None else shared
                if ov != 0.0:
                    total += ca * cb * ov
        out.append(complex(total))
    return out


def _target_amps(join: tuple, ket: Sequence[Branch]) -> list[complex] | None:
    """<t|ket> for every target t of a family join (see :func:`_check_orthonormal`),
    from one walk of the ket rows and the pair loop; None when one holds a vector on the key."""
    key, rest, cols, rows = join
    hits: dict[int, list[Branch]] = {}
    for b in ket:
        u = cols.get(labels := _labels(b[1], key))
        if u is not None:
            hits.setdefault(u, []).append(b)
        elif not _ALL_BASIS.issuperset(map(type, labels)):
            return None
    return _pair_sums(rows, hits, rest)


def _check_orthonormal(dims: tuple[int, ...], targets: Sequence[BranchState]) -> tuple:
    """Raise unless the targets are orthonormal, from one Gram matrix over their label join,
    returned for the family to keep: the key (registers with a label on every row), the
    rest, each key-label row's column and the branches as (conj(c), column, factors)."""
    key, rest, _ = _join_key(dims, *(t.branches for t in targets))
    cols: dict[tuple[int, ...], int] = {}
    rows = [[(np.conj(c), cols.setdefault(_labels(fs, key), len(cols)), fs) for c, fs in t.branches]
            for t in targets]
    join = key, rest, cols, rows
    if rest:
        gram = np.array([_target_amps(join, t.branches) for t in targets]).T
    else:
        conj = np.zeros((len(rows), len(cols)), dtype=complex)
        for i, row in enumerate(rows):
            for cc, u, _ in row:
                conj[i, u] += cc
        gram = conj @ conj.conj().T
    gram.flat[:: len(rows) + 1] -= 1.0  # the deviation from the identity
    if not np.max(np.abs(gram)) <= NORM_TOL:
        if not np.max(np.abs(np.triu(gram, 1))) <= NORM_TOL:
            raise ValueError("measurement targets are not mutually orthogonal")
        _check_norm_offset(np.max(np.abs(np.diagonal(gram))))
    return join


def _check_norm_offset(off: float) -> None:
    """Raise unless a target's squared norm is off from 1 by at most ``NORM_TOL``."""
    if not off <= NORM_TOL:
        raise ValueError(f"measurement targets must be normalized (squared norm off by {off:.3e})")


def _check_target(target: BranchState, dims: tuple[int, ...]) -> None:
    """Raise unless a lone target has layout ``dims`` and norm 1 (checked at build if renormalized)."""
    if target.dims != dims:
        raise ValueError(f"layout mismatch: {target.dims} vs {dims}")
    if not target._unit:
        _check_norm_offset(abs(_branch_norm_sq(target.dims, target.branches) - 1.0))


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
    factors only; a state past the dense budget is refused before anything is allocated."""
    out = np.zeros(_check_dims(state.dims), dtype=complex)
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


def apply_branch_local(state: BranchState, register: int, U: LocalOp | np.ndarray) -> BranchState:
    """Apply a single-register unitary branchwise.

    Monomial unitaries keep labels as labels, and a diagonal one keeps each
    label row's tuple; anything else promotes the touched factor to a small
    local vector.
    """
    _check_registers([register], state.num_registers)
    op = LocalOp.of(U, state.dims[register])
    U, (perm, phases) = op.matrix, op.monomial or (None, None)
    diag = phases.tolist() if perm is identity_perm(op.dim) else None
    branches = []
    for coeff, factors in state.branches:
        f = factors[register]
        if type(f) is not int or perm is None:
            new = list(factors)
            new[register] = VecFactor(U @ f.amps if isinstance(f, VecFactor) else U[:, f])
            branches.append(_tidy_row(coeff, tuple(new), [register]))
        elif diag is not None:
            branches.append((coeff * diag[f], factors))
        else:
            new = list(factors)
            new[register] = int(perm[f])
            branches.append((coeff * phases[f], tuple(new)))
    return BranchState._trusted(state.dims, branches)


def attach_register(state: BranchState, dim: int, initial: int | np.ndarray) -> BranchState:
    """Extend the layout by a fresh register in the same state on every branch."""
    w, f = _tidy_factor(VecFactor(_initial_vector(dim, initial)))
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


def apply_pair_unitary(
    state: BranchState, pair: tuple[int, int], U: LocalOp | np.ndarray
) -> BranchState:
    """Apply a joint unitary on two registers; ``U`` acts on the tensor space
    ordered as ``pair``.

    This is the two-register operation of the entangling eavesdropper.
    Branches whose factors agree off the pair (by label or amplitude bytes)
    are summed into one two-register block, and each block becomes as many
    product branches as its Schmidt rank.
    """
    i, j = _check_registers(pair, state.num_registers)
    di, dj = state.dims[i], state.dims[j]
    U = LocalOp.of(U, di * dj).matrix
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


def _route(state: BranchState, regs: list[int], family: MeasurementFamily) -> tuple[list, list]:
    """Each mask member's projected branches, from one pass over the state's:
    the measured labels index ``family.owner``, whose row over one vector slot
    splits the vector (one kept label becomes that label); two vector slots
    are split per owning member by the Schmidt decomposition. Also whether each
    member's rows are all labels, from each input branch's unmeasured slots."""
    masks, owner = family.masks, family.owner
    out: list[list[Branch]] = [[] for _ in masks]
    labels = [True] * len(masks)
    for coeff, factors in state.branches:
        at = tuple([f if type(f) is int else slice(None) for f in map(factors.__getitem__, regs)])
        free = [r for r, i in zip(regs, at) if type(i) is slice]
        off_labels = list(map(type, factors)).count(int) + len(free) == len(factors)
        if not free:
            k = owner[at]
            if k >= 0:  # its mask entry is 1.0, the weight a per-member pass multiplied by
                out[k].append((coeff * (1 + 0j), factors))
                labels[k] = labels[k] and off_labels
        elif len(free) == 1:
            r = free[0]
            hits: dict[int, list[int]] = {}
            for j, k in enumerate(owner[at].tolist()):
                if k >= 0:
                    hits.setdefault(k, []).append(j)
            amps, new = factors[r].amps, list(factors)
            for k, on in hits.items():
                if len(on) == 1:  # one label passes: the factor becomes that label
                    new[r] = on[0]
                    if abs(amps[on[0]]) > _ZERO_TOL:
                        out[k].append((complex(coeff) * complex(amps[on[0]]), tuple(new)))
                        labels[k] = labels[k] and off_labels
                    continue
                masked = amps * np.asarray(masks[k][at], dtype=complex)
                if np.linalg.norm(masked) > _ZERO_TOL:
                    new[r] = VecFactor(masked)
                    out[k].append(_tidy_row(coeff, tuple(new), [r]))
                    labels[k] = False
        elif len(free) == 2:
            p, q = free
            block = np.multiply.outer(factors[p].amps, factors[q].amps)
            for k in np.unique(owner[at]).tolist():
                if k >= 0:
                    out[k].extend(_schmidt_split(coeff, factors, (p, q), block * masks[k][at]))
                    labels[k] = False
        else:
            raise BranchError("diagonal projection couples more than two non-basis "
                              "registers; use the dense backend")
    return out, labels


def _collapse_onto(state: BranchState, target: BranchState, regs: list[int]) -> Iterator[tuple]:
    """<target|_regs |state> as (coefficient, j): state branch j's coefficient
    collapsed onto each target branch, on the state's unmeasured row j."""
    for tc, tf in target.branches:
        tvecs = [(v, np.conj(v)) for v in map(_factor_vector, tf, target.dims)]
        ctc = np.conj(tc)
        for j, (c, factors) in enumerate(state.branches):
            scal = ctc * c
            for (tvec, conj), r in zip(tvecs, regs):
                f = factors[r]
                scal *= conj[f] if type(f) is int else np.vdot(tvec, f.amps)
            if abs(scal) > _ZERO_TOL:
                yield scal, j


def _rest_join(dims: tuple[int, ...], rows: list[tuple[Factor, ...]]) -> tuple:
    """The one join of a subset measurement's unmeasured ``rows`` that every member
    shares: each row's bucket (its labels on the key), the bucket count, the registers
    off the key, and the overlap they share (None when one is free, see
    :func:`_join_key`, or none is off the key)."""
    labels = _ALL_BASIS.issuperset(map(type, chain.from_iterable(rows)))  # then every register is key
    key, off, free = (range(len(dims)), [], []) if labels else _join_key(dims, [*enumerate(rows)])
    whole = key if free else range(len(dims))  # shared off-key objects: the labels pick out the row
    buckets: dict[tuple, int] = {}
    bucket = [buckets.setdefault(_labels(row, whole), len(buckets)) for row in rows]
    shared = None if free or not off else _pair_overlap(rows[0], rows[0], off)
    return bucket, len(buckets), off, shared


def _collapse_norm_sq(dims: tuple[int, ...], rows: list[tuple], join: tuple,
                      chi: list[tuple[complex, int]], single: bool) -> float:
    """:func:`_branch_norm_sq` of a collapse ``chi`` onto the unmeasured ``rows``
    (each at most once when ``single``), bitwise, through their join."""
    bucket, n_buckets, off, shared = join
    if single and not off and n_buckets == len(rows):  # distinct label rows: j stands for row j
        return _branch_norm_sq(dims, chi, True)
    if single and shared is not None and n_buckets == len(rows):  # each row pairs with itself only
        total = 0.0 + 0.0j
        for c, _ in chi if shared != 0.0 else ():  # the pair loop's products, in its order
            total += np.conj(c) * c * shared
        return max(complex(total).real, 0.0)
    hits: dict[int, list[Branch]] = {}
    for c, j in chi:
        hits.setdefault(bucket[j], []).append((c, rows[j]))
    bra = [(np.conj(c), bucket[j], rows[j]) for c, j in chi]
    return max(_pair_sums([bra], hits, off, shared)[0].real, 0.0)


def _branch_norm_sq(dims: tuple[int, ...], branches: Sequence[Branch], labels=None) -> float:
    """The squared norm <psi|psi> of a branch list. When every row is all
    labels (``labels``; None walks the rows) and no row repeats, only diagonal
    pairs overlap, and conj(c) c is re^2 + im^2 exactly: their sum in branch
    order is bitwise what the pair loop of :func:`_inners` gives."""
    rows = [fs for _, fs in branches]
    if labels is None:
        labels = _ALL_BASIS.issuperset(map(type, chain.from_iterable(rows)))
    if labels and len(set(rows)) == len(rows):
        total = 0.0
        for c, _ in branches:
            total += c.real * c.real + c.imag * c.imag
        return float(total)
    return max(_inners(dims, [branches], branches)[0].real, 0.0)  # NaN stays NaN


class MeasurementFamily(_Frozen):
    """A projector family on registers of dims ``dims``, checked once when
    built: read-only 0/1 masks shaped ``dims`` or orthonormal rank-1
    :class:`BranchState` targets (the other tuple empty), and the total rank;
    ``family[k]`` is member k. Array forms go through the dense backend's parse,
    kets becoming one-register targets (``kets`` keeps them as parsed); targets
    get a layout and Gram check, whose label join they keep as ``join``.
    ``owner`` (shaped ``dims``; None for targets) holds the member whose mask
    holds each label tuple, or -1 for the remainder. ``step`` (``monomial``) is None
    unless :func:`phase_family` (:func:`_mark_monomial`) marked it."""

    __slots__ = ("dims", "masks", "kets", "targets", "rank", "owner", "join", "step", "monomial")

    def __init__(self, dims: Sequence[int], projectors: Sequence, *, diagonal: bool = False):
        dims = tuple(int(d) for d in dims)
        projectors = list(projectors)
        if diagonal or not projectors or not all(isinstance(P, BranchState) for P in projectors):
            masks, kets = _parse_arrays(projectors, dims, diagonal)
            if kets and len(dims) != 1:
                raise BranchError("raw kets are only supported on a single register; "
                                  "pass a BranchState for multi-register targets")
            join = None
            targets = [BranchState(dims, [(1.0, (VecFactor(k),))], renormalize=False) for k in kets]
        else:
            if any(P.dims != dims for P in projectors):
                raise ValueError("target state layout does not match the measured registers")
            masks, kets, targets, join = [], [], projectors, _check_orthonormal(dims, projectors)
        stack = np.asarray(masks)  # checked disjoint and 0/1: one member per label tuple at most
        owner = _read_only(np.where(stack.max(axis=0) > 0, stack.argmax(axis=0), -1)) if masks else None
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "masks", tuple(map(_read_only, masks)))
        object.__setattr__(self, "kets", tuple(map(_read_only, kets)))
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "rank", sum(map(np.sum, masks)) + len(targets))
        object.__setattr__(self, "join", join)
        object.__setattr__(self, "step", None)
        object.__setattr__(self, "monomial", None)

    def __len__(self) -> int:
        return len(self.masks) + len(self.targets)

    def __getitem__(self, k: int) -> np.ndarray | BranchState:
        return (self.masks or self.targets)[k]


def _family(state: BranchState | DenseState, projectors, registers: Sequence[int] | None,
            diagonal: bool) -> tuple[list[int], MeasurementFamily]:
    """The measured registers of a state of either backend (all when None) and the family on
    them, which both backends measure by its kind: a raw list is built into one; a family must fit."""
    n_regs = state.num_registers
    regs = _check_registers(range(n_regs) if registers is None else registers, n_regs)
    sdims = tuple(state.dims[r] for r in regs)
    if not isinstance(projectors, MeasurementFamily):
        projectors = MeasurementFamily(sdims, projectors, diagonal=diagonal)
    elif projectors.dims != sdims:
        raise ValueError(f"family dims {projectors.dims} do not match the measured registers {sdims}")
    return regs, projectors


def _project(
    state: BranchState, regs: list[int], family: MeasurementFamily
) -> tuple[list[float], Callable[[int, float], list[Branch]]]:
    """Born weight of each member of a family on ``regs``, and ``post(k, n)``:
    outcome k's post-state branches in the state's register order, divided by n.
    A full-register family scores the state's rows, permuted into the measured
    order, through its join; a subset family collapses the state onto each
    target, sharing one join of its unmeasured rows, and keeps the target's
    factors in their slots."""
    masks, targets = family.masks, family.targets
    if masks:
        projected, labels = _route(state, regs, family)
        probs = [_branch_norm_sq(state.dims, br, lab) for br, lab in zip(projected, labels)]
        return probs, lambda k, n: [(c / n, fs) for c, fs in projected[k]]
    if len(regs) == state.num_registers:
        ket = state.branches
        if regs != sorted(regs):
            ket = [(c, tuple(fs[r] for r in regs)) for c, fs in ket]
        amps = (family.join and _target_amps(family.join, ket)) or _inners(
            family.dims, [t.branches for t in targets], ket)  # raw kets, or a vector on the key
        slots = sorted(range(len(regs)), key=regs.__getitem__)
        return [float(abs(a) ** 2) for a in amps], lambda k, n: [
            ((amps[k] * c) / n, tuple(tf[i] for i in slots)) for c, tf in targets[k].branches
        ]
    rest = [r for r in range(state.num_registers) if r not in regs]
    if len(regs) == 1:  # an announcement's unmeasured rows, by slicing
        rows = [fs[: regs[0]] + fs[regs[0] + 1:] for _, fs in state.branches]
    else:
        rows = [tuple([fs[r] for r in rest]) for _, fs in state.branches]
    rdims = tuple(state.dims[r] for r in rest)
    join = _rest_join(rdims, rows)
    chis = [list(_collapse_onto(state, t, regs)) for t in targets]
    probs = [_collapse_norm_sq(rdims, rows, join, chi, len(t.branches) == 1) for chi, t in zip(chis, targets)]
    slots = sorted(range(len(regs + rest)), key=(regs + rest).__getitem__)
    return probs, lambda k, n: [
        (tc * (c / n), tuple((tf + rows[j])[i] for i in slots))
        for tc, tf in targets[k].branches
        for c, j in chis[k]
    ]


def _scores(state: BranchState, projectors, registers: Sequence[int] | None, diagonal: bool) -> tuple:
    """What :func:`branch_measure` draws from: each member's Born weight, the family's
    rank and the measured space's dimension (:func:`_draw_outcome`'s arguments), and
    :func:`_project`'s ``post``."""
    regs, family = _family(state, projectors, registers, diagonal)
    probs, post = _project(state, regs, family)
    return probs, family.rank, math.prod([state.dims[r] for r in regs]), post


def branch_measure(
    state: BranchState,
    projectors: MeasurementFamily | Sequence[np.ndarray | BranchState],
    rng: np.random.Generator,
    registers: Sequence[int] | None = None,
    *,
    diagonal: bool = False,
) -> tuple[int, BranchState | None, float]:
    """Born-rule measurement restricted to branch-representable projectors.

    ``projectors`` is a :class:`MeasurementFamily` with the dims of
    ``registers`` (all when None, in any order), or a list the family is
    built from, of one of these forms:

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
    probs, rank, dim, post = _scores(state, projectors, registers, diagonal)
    k = _draw_outcome(probs, rank, dim, rng)
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
    form, checked as a one-member family: (probability, normalized post-state
    or None when it vanishes)."""
    regs, family = _family(state, [projector], registers, diagonal)
    probs, post = _project(state, regs, family)
    p = probs[0]
    if p <= VANISHING_PROB:
        return p, None
    return p, BranchState._trusted(state.dims, post(0, np.sqrt(p)))
